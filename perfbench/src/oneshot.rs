//! The one-shot workloads: `im-bfs`, `im-cc` and `sem-bfs`. Each builds
//! its graph from the seed, computes the serial answers, then repeats
//! traversals for the run's duration, checking every one.

use crate::layers::{EndToEnd, Layers};
use crate::probes;
use crate::trace::{timed, Tracer};
use crate::util::*;
use crate::Ctx;
use asyncgt::engine::{with_engine, EngineOpts};
use asyncgt::graph::generators::{RmatGenerator, RmatParams};
use asyncgt::graph::{GraphBuilder, WeightedEdgeList};
use asyncgt::obs::{MetricSink, NoopRecorder, ShardedRecorder};
use asyncgt::storage::{write_sem_graph, DeviceModel, IoStats, SemConfig, SimulatedFlash};
use asyncgt::{
    try_bfs, try_bfs_recorded, try_connected_components, try_connected_components_recorded,
    try_sssp, try_sssp_recorded, Config, CsrGraph, Graph, SemGraph, TraversalError,
};
use asyncgt_baselines::serial;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Distinct seeded sources a BFS workload cycles through.
const SOURCES: usize = 4;
/// Untimed traversals before the measured ones.
const WARMUP: usize = 2;
/// A run holds at least this many untraced traversals.
const MIN_SAMPLES: usize = 5;

pub fn rmat_edges(scale: u32, seed: u64) -> WeightedEdgeList {
    RmatGenerator::new(RmatParams::RMAT_A, scale, 16, derive(seed, 1)).edges()
}

/// Directed (or, with `undirected`, symmetrized and deduplicated) u32 CSR.
pub fn build_csr(n: u64, edges: WeightedEdgeList, undirected: bool) -> CsrGraph<u32> {
    let b = GraphBuilder::from_edges(n, edges, false);
    if undirected {
        b.symmetrize().dedup().build()
    } else {
        b.build()
    }
}

/// Storage settings of `sem-bfs`: simulated FusionIO, no block cache,
/// 8 KiB blocks, checksums verified, no readahead, no prefetch pool.
pub fn sem_config(metrics: Option<Arc<dyn MetricSink>>) -> SemConfig {
    SemConfig {
        block_size: 8192,
        cache_blocks: 0,
        device: Some(Arc::new(SimulatedFlash::new(DeviceModel::fusion_io()))),
        metrics,
        verify_checksums: true,
        readahead: 0,
        prefetch_threads: 0,
        ..SemConfig::default()
    }
}

/// Write `g` to `path` and open it with the `sem-bfs` storage settings.
pub fn open_sem(path: &Path, g: &CsrGraph<u32>, metrics: Option<Arc<dyn MetricSink>>) -> SemGraph {
    write_sem_graph(path, g).expect("benchmark work directory must be writable");
    SemGraph::open_with(path, sem_config(metrics)).expect("freshly written graph must open")
}

/// Run `SETUP_REPS` set-ups, timing only `build`; `input` (untimed) makes
/// each one's input. Returns the last set-up's result and every time.
pub fn time_setup<I, T>(
    ctx: &Ctx,
    mut input: impl FnMut() -> I,
    mut build: impl FnMut(I, u64) -> T,
) -> (T, Vec<f64>) {
    let tr = ctx.tr();
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let i = input();
        drop(last.take());
        let id = tr.map_or(0, Tracer::next_id);
        let start = Instant::now();
        let out = build(i, id);
        let end = Instant::now();
        if let Some(tr) = tr {
            tr.record(id, 0, 0, "setup", start, end);
        }
        times.push((end - start).as_secs_f64());
        last = Some(out);
    }
    (last.expect("at least one set-up"), times)
}

/// Run `q` through the one-shot API, recorded when `rec` is given.
pub fn traverse<G: Graph>(
    g: &G,
    q: Query,
    cfg: &Config,
    rec: Option<&ShardedRecorder>,
) -> Result<Answer, TraversalError> {
    match (q, rec) {
        (Query::Bfs(s), None) => try_bfs(g, s, cfg).map(Answer::Path),
        (Query::Bfs(s), Some(r)) => try_bfs_recorded(g, s, cfg, r).map(Answer::Path),
        (Query::Sssp(s), None) => try_sssp(g, s, cfg).map(Answer::Path),
        (Query::Sssp(s), Some(r)) => try_sssp_recorded(g, s, cfg, r).map(Answer::Path),
        (Query::Cc, None) => try_connected_components(g, cfg).map(Answer::Cc),
        (Query::Cc, Some(r)) => try_connected_components_recorded(g, cfg, r).map(Answer::Cc),
    }
}

/// `⌈lg₂ n⌉`, as core scales bucket classes with it.
pub fn lg2(n: u64) -> u32 {
    64 - n.max(2).saturating_sub(1).leading_zeros()
}

/// One traversal of the run and its serial answer.
pub struct Job {
    pub query: Query,
    pub reference: Vec<u64>,
    /// Edges in the traversed component.
    pub edges: u64,
}

/// BFS jobs from `SOURCES` seeded sources in the giant component.
pub fn bfs_jobs<G: Graph>(ctx: &Ctx, g: &G) -> Vec<Job> {
    let mut jobs: Vec<Job> = pick_sources(g, SOURCES, derive(ctx.seed, 2))
        .into_iter()
        .map(|(s, r)| Job {
            query: Query::Bfs(s),
            edges: component_edges(g, &r.dist),
            reference: r.dist,
        })
        .collect();
    if ctx.wrong_reference {
        corrupt(&mut jobs[0].reference);
    }
    jobs
}

struct Sample {
    ms: f64,
    /// Peak RSS while the traversal ran.
    rss_mb: f64,
    edges: u64,
    visitors: u64,
    relaxations: u64,
    /// Vertices labelled (reached, or all of them for CC).
    vertices: u64,
    io: IoStats,
}

fn io_delta(after: IoStats, before: IoStats) -> IoStats {
    IoStats {
        adjacency_reads: after.adjacency_reads - before.adjacency_reads,
        bytes_read: after.bytes_read - before.bytes_read,
        block_fetches: after.block_fetches - before.block_fetches,
        retries: after.retries - before.retries,
        blocks_coalesced: after.blocks_coalesced - before.blocks_coalesced,
        ..IoStats::default()
    }
}

fn median_of(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// Everything a one-shot workload plugs into the shared loop.
pub struct OneShot<'a, G: Graph, C: Graph> {
    pub ctx: &'a Ctx,
    /// The graph traversed untraced, and the one traced traversals use
    /// (the same, except that a SEM graph must carry the recorder as its
    /// metric sink).
    pub g: &'a G,
    pub g_traced: &'a G,
    /// Graph the validator reads (for SEM, a device-less view of the file).
    pub checker: &'a C,
    pub cfg: Config,
    pub jobs: Vec<Job>,
    pub setup_s: Vec<f64>,
    pub rec: Arc<ShardedRecorder>,
    /// `g` and `g_traced` when they are semi-external.
    pub sem: Option<(&'a SemGraph, &'a SemGraph)>,
    /// Traced run only: the CSR and a SEM copy of it for the probes.
    pub csr: Option<&'a CsrGraph<u32>>,
    pub probe_sem: Option<&'a SemGraph>,
}

impl<G: Graph, C: Graph> OneShot<'_, G, C> {
    fn one(&self, j: usize, traced: bool, trace: u64) -> Result<Sample, String> {
        let job = &self.jobs[j];
        let g = if traced { self.g_traced } else { self.g };
        let sem = self.sem.map(|(p, t)| if traced { t } else { p });
        let io0 = sem.map(SemGraph::io_stats).unwrap_or_default();
        let name = if traced {
            "traversal.traced"
        } else {
            "traversal"
        };
        let rec = traced.then_some(&*self.rec);
        let tr = self.ctx.tr();
        reset_peak_rss();
        let (res, dt) = timed(tr, name, trace, 0, || {
            traverse(g, job.query, &self.cfg, rec)
        });
        let rss_mb = peak_rss_mb();
        let io = sem.map_or_else(IoStats::default, |s| io_delta(s.io_stats(), io0));
        let a = res.map_err(|e| format!("{:?}: {e}", job.query))?;
        timed(tr, "check", trace, 0, || {
            check_answer(self.checker, job.query, &a, &job.reference)
        })
        .0?;
        let st = a.stats();
        Ok(Sample {
            ms: ms(dt),
            rss_mb,
            edges: job.edges,
            visitors: st.visitors_executed,
            relaxations: st.relaxations,
            vertices: match &a {
                Answer::Path(o) => o.reached_count(),
                Answer::Cc(o) => o.ccid.len() as u64,
            },
            io,
        })
    }

    /// Traverse for the run's duration. Untraced, every traversal is
    /// plain; traced, plain and traced traversals of the same source
    /// alternate in pairs (the order flips every pair).
    fn measure(&self, tally: &mut Tally) -> (Vec<Sample>, Vec<Sample>) {
        let tracing = self.ctx.tracer.is_some();
        let start = Instant::now();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut i = 0;
        while start.elapsed().as_secs_f64() < self.ctx.seconds
            || (plain.len() < MIN_SAMPLES && i < 4 * MIN_SAMPLES)
        {
            let pair = if tracing { i / 2 } else { i };
            let want_traced = tracing && ((i % 2 == 1) != (pair % 2 == 1));
            let trace = self.ctx.tr().map_or(0, Tracer::next_id);
            let res = self.one(pair % self.jobs.len(), want_traced, trace);
            if let Some(s) = tally.record_ok(res) {
                if want_traced { &mut traced } else { &mut plain }.push(s);
            }
            i += 1;
        }
        (plain, traced)
    }

    pub fn run(self) -> Outcome {
        let mut tally = Tally::default();
        // Return what set-up freed, then warm up: fault in state arrays,
        // queue buffers and thread stacks before timing.
        trim_heap();
        for j in 0..WARMUP {
            tally.record_ok(self.one(j % self.jobs.len(), false, 0));
        }
        let (plain, traced) = self.measure(&mut tally);
        let metrics = if self.ctx.tracer.is_some() {
            self.layers(&plain, &traced, &mut tally).metrics()
        } else {
            let ms: Vec<f64> = plain.iter().map(|s| s.ms).collect();
            EndToEnd {
                setup_s: median(&self.setup_s),
                traversal_ms: median(&ms),
                query_p90_ms: quantile(&ms, 0.9),
                queries_per_s: ratio(ms.len() as f64 * 1e3, ms.iter().sum()),
                mteps: median_of(&plain, |s| s.edges as f64 / (s.ms * 1e3)),
                peak_rss_mb: median_of(&plain, |s| s.rss_mb),
            }
            .metrics()
        };
        Outcome {
            tally,
            metrics,
            snapshot: self.ctx.tracer.is_some().then(|| self.rec.snapshot()),
        }
    }

    fn layers(&self, plain: &[Sample], traced: &[Sample], tally: &mut Tally) -> Layers {
        let ctx = self.ctx;
        let tr = ctx.tr();
        let probe = |name, f: &mut dyn FnMut()| timed(tr, name, 0, 0, f);
        let csr = self.csr.expect("the traced run keeps the CSR");
        let job = &self.jobs[0];
        let n = csr.num_vertices();
        let plain_ms = median_of(plain, |s| s.ms);
        let mut l = Layers {
            obs_trace_overhead_frac: ratio(median_of(traced, |s| s.ms), plain_ms) - 1.0,
            core_visitors_per_edge: median_of(traced, |s| ratio(s.visitors as f64, s.edges as f64)),
            core_relax_per_vertex: median_of(traced, |s| {
                ratio(s.relaxations as f64, s.vertices as f64)
            }),
            ..Layers::default()
        };
        l.set_vq_counters(&self.rec.snapshot(), traced.len());

        probe("probe.graph_scan", &mut || {
            l.graph_scan_ns_per_edge = probes::scan_ns_per_edge(csr, 5)
        });

        // vq: the bucket queue over this workload's priority stream, then
        // the runtime with a push-only handler replaying its pushes.
        let order = visit_order(&job.reference);
        let label = |u: u64| job.reference[u as usize];
        let (ops, shift) = match job.query {
            Query::Cc => (
                probes::priority_stream(csr, (0..n).map(|v| (v, v)), &order, label),
                lg2(n).saturating_sub(10),
            ),
            Query::Bfs(s) | Query::Sssp(s) => (
                probes::priority_stream(csr, [(0, s)].into_iter(), &order, |u| label(u) + 1),
                0,
            ),
        };
        probe("probe.vq_bucket", &mut || {
            l.vq_bucket_ns_per_visitor = probes::bucket_ns_per_visitor(&ops, shift, 3)
        });
        let pushes = probes::pushes(&ops);
        drop(ops);
        let fanout = ratio(job.edges as f64, order.len() as f64).round() as u64;
        let mut exact = true;
        for (threads, out) in [
            (1, &mut l.vq_run_ns_per_visitor_1w),
            (ctx.threads, &mut l.vq_run_ns_per_visitor),
        ] {
            probe("probe.vq_run", &mut || {
                let (ns, ok) = probes::vq_run_ns_per_visitor(&pushes, fanout, threads, shift, 3);
                *out = ns;
                exact &= ok;
            });
        }
        tally.record(if exact {
            Ok(())
        } else {
            Err("push-only runtime probe lost or duplicated visitors".into())
        });

        // core: the whole traversal at one worker.
        let cfg1 = Config {
            num_threads: 1,
            ..self.cfg.clone()
        };
        let reps = if self.sem.is_some() { 1 } else { 3 };
        let one_worker: Vec<Sample> = (0..reps)
            .filter_map(|_| {
                let res = timed(tr, "probe.core_1w", 0, 0, || -> Result<Sample, String> {
                    let io0 = self.sem.map(|(p, _)| p.io_stats()).unwrap_or_default();
                    let t = Instant::now();
                    let a = traverse(self.g, job.query, &cfg1, None)
                        .map_err(|e| format!("1-worker {:?}: {e}", job.query))?;
                    let ms = ms(t.elapsed());
                    let io = self
                        .sem
                        .map_or_else(IoStats::default, |(p, _)| io_delta(p.io_stats(), io0));
                    check_answer(self.checker, job.query, &a, &job.reference)?;
                    Ok(Sample {
                        ms,
                        rss_mb: 0.0,
                        edges: job.edges,
                        visitors: a.stats().visitors_executed,
                        relaxations: a.stats().relaxations,
                        vertices: 0,
                        io,
                    })
                })
                .0;
                tally.record_ok(res)
            })
            .collect();
        l.core_ns_per_visitor_1w = median_of(&one_worker, |s| ratio(s.ms * 1e6, s.visitors as f64));

        // storage: per-traversal counters (SEM only), then the fetch and
        // prefetch probes on a SEM copy of this workload's graph.
        if let Some((sem, _)) = self.sem {
            let med = |f: fn(&IoStats) -> u64| median_of(plain, |s| f(&s.io) as f64) as u64;
            let io = IoStats {
                adjacency_reads: med(|io| io.adjacency_reads),
                bytes_read: med(|io| io.bytes_read),
                block_fetches: med(|io| io.block_fetches),
                retries: med(|io| io.retries),
                blocks_coalesced: med(|io| io.blocks_coalesced),
                ..IoStats::default()
            };
            let edge_bytes = job.edges * sem.header().record_size();
            l.set_storage(&io, edge_bytes, &DeviceModel::fusion_io(), plain_ms / 1e3);
        }
        let ps = self
            .probe_sem
            .expect("the traced run opens a probe SEM graph");
        let fetch = timed(tr, "probe.storage_fetch", 0, 0, || {
            probes::fetch_us(ps, &order, if ctx.tiny { 200 } else { 2000 })
        })
        .0;
        if let Some(us) = tally.record_ok(fetch) {
            l.storage_fetch_us = us;
        }
        probe("probe.storage_prefetch", &mut || {
            l.storage_prefetch_us_per_batch = probes::prefetch_us_per_batch(ps, &order, 100)
        });

        // The layers should add up to the 1-worker cost per visitor.
        let w = one_worker.first();
        let visitors_1w = w.map_or(0.0, |s| s.visitors as f64);
        let scanned =
            job.edges as f64 * ratio(w.map_or(0.0, |s| s.relaxations as f64), order.len() as f64);
        let storage_ns = l.storage_fetch_us * 1e3 * w.map_or(0.0, |s| s.io.block_fetches as f64);
        l.set_unexplained(ratio(scanned, visitors_1w), ratio(storage_ns, visitors_1w));

        // baselines: the serial traversal of the same graph.
        let serial_reps = if self.sem.is_some() { 1 } else { 3 };
        let serial_ms: Vec<f64> = (0..serial_reps)
            .map(|r| {
                let q = self.jobs[r % self.jobs.len()].query;
                let (_, dt) = timed(tr, "probe.serial", 0, 0, || match q {
                    Query::Bfs(s) => black_box(serial::bfs(self.g, s).dist),
                    Query::Sssp(s) => black_box(serial::dijkstra(self.g, s).dist),
                    Query::Cc => black_box(serial::connected_components(self.g)),
                });
                ms(dt)
            })
            .collect();
        l.baselines_speedup_vs_serial = ratio(median(&serial_ms), plain_ms);

        // engine: the same queries one at a time on a persistent engine.
        let queries: Vec<(Query, &[u64])> = (0..if self.sem.is_some() { 3 } else { 4 })
            .map(|k| {
                let j = &self.jobs[k % self.jobs.len()];
                (j.query, j.reference.as_slice())
            })
            .collect();
        let e = engine_probe(ctx, self.g, self.checker, &self.cfg, &queries, tally);
        l.engine_submit_us = e.submit_us;
        l.engine_overhead_ratio = ratio(e.latency_ms, plain_ms);
        l.engine_state_arrays_per_query = e.arrays_per_query;
        l
    }
}

/// Result of [`engine_probe`].
pub struct EngineProbe {
    pub submit_us: f64,
    pub latency_ms: f64,
    pub arrays_per_query: f64,
}

/// Run `queries` one at a time on a persistent engine over `g`, checking
/// each answer against its reference.
pub fn engine_probe<G: Graph, C: Graph>(
    ctx: &Ctx,
    g: &G,
    checker: &C,
    cfg: &Config,
    queries: &[(Query, &[u64])],
    tally: &mut Tally,
) -> EngineProbe {
    let opts = EngineOpts {
        cfg: cfg.clone(),
        max_concurrent: ctx.threads,
        ..EngineOpts::default()
    };
    let (mut submit_us, mut latency_ms) = (Vec::new(), Vec::new());
    let (arrays, _) = with_engine(g, &opts, &NoopRecorder, |eng| {
        crate::engine::closed_loop(
            eng,
            1,
            ctx.tr(),
            |seq, _| queries.get(seq).map(|q| q.0),
            |c| {
                let res = c
                    .answer
                    .and_then(|a| check_answer(checker, c.query, &a, queries[c.seq].1));
                if tally.record(res) {
                    submit_us.push(c.submit.as_nanos() as f64 / 1e3);
                    latency_ms.push(ms(c.latency));
                }
            },
        );
        eng.state_arrays_allocated()
    });
    EngineProbe {
        submit_us: median(&submit_us),
        latency_ms: median(&latency_ms),
        arrays_per_query: ratio(arrays as f64, queries.len() as f64),
    }
}

pub fn im_bfs(ctx: &Ctx) -> Outcome {
    let scale = ctx.scale(18);
    let n = 1u64 << scale;
    let edges = rmat_edges(scale, ctx.seed);
    let tr = ctx.tr();
    let (g, setup_s) = time_setup(
        ctx,
        || edges.clone(),
        |e, parent| timed(tr, "setup.csr_build", 0, parent, || build_csr(n, e, false)).0,
    );
    drop(edges);
    let jobs = bfs_jobs(ctx, &g);
    let probe_sem = ctx
        .tracer
        .is_some()
        .then(|| open_sem(&ctx.work_file("probe.agt"), &g, None));
    OneShot {
        ctx,
        g: &g,
        g_traced: &g,
        checker: &g,
        cfg: Config::with_threads(ctx.threads),
        jobs,
        setup_s,
        rec: Arc::new(ShardedRecorder::new(ctx.threads)),
        sem: None,
        csr: Some(&g),
        probe_sem: probe_sem.as_ref(),
    }
    .run()
}

pub fn im_cc(ctx: &Ctx) -> Outcome {
    let scale = ctx.scale(16);
    let n = 1u64 << scale;
    let edges = rmat_edges(scale, ctx.seed);
    let tr = ctx.tr();
    let (g, setup_s) = time_setup(
        ctx,
        || edges.clone(),
        |e, parent| timed(tr, "setup.csr_build", 0, parent, || build_csr(n, e, true)).0,
    );
    drop(edges);
    let mut reference = serial::connected_components(&g);
    if ctx.wrong_reference {
        corrupt(&mut reference);
    }
    let jobs = vec![Job {
        query: Query::Cc,
        reference,
        edges: g.num_edges(),
    }];
    let probe_sem = ctx
        .tracer
        .is_some()
        .then(|| open_sem(&ctx.work_file("probe.agt"), &g, None));
    OneShot {
        ctx,
        g: &g,
        g_traced: &g,
        checker: &g,
        cfg: Config::with_threads(ctx.threads),
        jobs,
        setup_s,
        rec: Arc::new(ShardedRecorder::new(ctx.threads)),
        sem: None,
        csr: Some(&g),
        probe_sem: probe_sem.as_ref(),
    }
    .run()
}

pub fn sem_bfs(ctx: &Ctx) -> Outcome {
    let scale = ctx.scale(17);
    let n = 1u64 << scale;
    let edges = rmat_edges(scale, ctx.seed);
    let tr = ctx.tr();
    let path = ctx.work_file("sem-bfs.agt");
    let ((csr, sem), setup_s) = time_setup(
        ctx,
        || edges.clone(),
        |e, parent| {
            let csr = timed(tr, "setup.csr_build", 0, parent, || build_csr(n, e, false)).0;
            timed(tr, "setup.sem_write", 0, parent, || {
                write_sem_graph(&path, &csr)
            })
            .0
            .expect("benchmark work directory must be writable");
            let sem = timed(tr, "setup.sem_open", 0, parent, || {
                SemGraph::open_with(&path, sem_config(None))
            })
            .0
            .expect("freshly written graph must open");
            (csr, sem)
        },
    );
    drop(edges);
    let jobs = bfs_jobs(ctx, &csr);
    // The validator reads adjacency through a device-less, cache-less view
    // of the same file, so checking costs no simulated device time and
    // keeps no edges resident.
    let checker = SemGraph::open_with(
        &path,
        SemConfig {
            block_size: 4096,
            cache_blocks: 0,
            verify_checksums: false,
            ..SemConfig::default()
        },
    )
    .expect("freshly written graph must open");
    let rec = Arc::new(ShardedRecorder::new(ctx.threads));
    let sem_traced = ctx.tracer.is_some().then(|| {
        let sink: Arc<dyn MetricSink> = rec.clone();
        SemGraph::open_with(&path, sem_config(Some(sink))).expect("freshly written graph must open")
    });
    // Untraced, the edges live only on storage: peak RSS tracks vertex state.
    let csr = ctx.tracer.is_some().then_some(csr);
    let traced_graph = sem_traced.as_ref().unwrap_or(&sem);
    OneShot {
        ctx,
        g: &sem,
        g_traced: traced_graph,
        checker: &checker,
        cfg: Config::with_threads(ctx.threads).with_io_batch(64),
        jobs,
        setup_s,
        rec,
        sem: Some((&sem, traced_graph)),
        csr: csr.as_ref(),
        probe_sem: Some(&sem),
    }
    .run()
}
