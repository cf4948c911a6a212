//! `engine-mix`: persistent engines over an in-memory, uniformly weighted
//! RMAT-A graph, driven by a closed loop from one thread that keeps
//! `nproc` BFS and SSSP queries outstanding. Each engine serves a round
//! of `ROUND_QUERIES` measured queries, then a fresh one takes over.

use crate::engine::closed_loop;
use crate::layers::{EndToEnd, Layers};
use crate::oneshot::{engine_probe, lg2, open_sem, rmat_edges, traverse};
use crate::probes;
use crate::trace::timed;
use crate::util::*;
use crate::Ctx;
use asyncgt::engine::{with_engine, EngineOpts, TraversalEngine};
use asyncgt::graph::weights::{assign_weights, WeightKind};
use asyncgt::graph::GraphBuilder;
use asyncgt::obs::{NoopRecorder, Recorder, ShardedRecorder};
use asyncgt::{Config, CsrGraph, Graph, Vertex, INF_DIST};
use asyncgt_baselines::serial;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Distinct seeded sources the queries cycle through.
const SOURCES: usize = 16;
/// A measured phase holds at least this many queries, so that at least
/// ten lie beyond p90.
const MIN_QUERIES: usize = 100;
/// Measured queries per engine lifetime. Engine query latency and RSS
/// grow with the number of queries an engine has served, so one engine
/// for the whole run would make every metric depend on the run's length;
/// a fresh engine every `ROUND_QUERIES` keeps the rounds alike.
const ROUND_QUERIES: usize = 64;

struct Source {
    vertex: Vertex,
    bfs: Vec<u64>,
    sssp: Vec<u64>,
    edges: u64,
}

/// Query `seq` of the mix: three BFS, then one SSSP, cycling over the
/// sources (the SSSP slot moves to another source every cycle). An SSSP
/// query takes ~5x a BFS query here; at one SSSP in four, the median lies
/// inside the BFS mode and p90 inside the SSSP mode, where a 1:1 mix
/// would put the median in the gap between the two.
fn query(sources: &[Source], seq: usize) -> (Query, &Source) {
    let s = &sources[seq % sources.len()];
    let q = if (seq + seq / sources.len()) % 4 == 3 {
        Query::Sssp(s.vertex)
    } else {
        Query::Bfs(s.vertex)
    };
    (q, s)
}

fn reference(s: &Source, q: Query) -> &[u64] {
    match q {
        Query::Sssp(_) => &s.sssp,
        _ => &s.bfs,
    }
}

/// One checked query of a measured phase.
struct Done {
    latency_ms: f64,
    submit_us: f64,
    edges: u64,
    visitors: u64,
    relaxations: u64,
    reached: u64,
}

/// Measured queries of one or more engine rounds.
#[derive(Default)]
struct Phase {
    done: Vec<Done>,
    /// Wall time of the measured closed loops (warm-ups excluded).
    wall: Duration,
    /// Label arrays each round's engine allocated, per query it served.
    arrays_per_query: Vec<f64>,
}

/// One engine round: warm the engine up, then run the closed loop for
/// `ROUND_QUERIES` queries, or fewer once `deadline` has passed and the
/// phase holds `MIN_QUERIES`. Checks every answer; returns the number of
/// queries submitted, so the next round continues the sequence.
#[allow(clippy::too_many_arguments)]
fn round<R: Recorder>(
    ctx: &Ctx,
    eng: &TraversalEngine<'_, '_, CsrGraph<u32>, R>,
    g: &CsrGraph<u32>,
    sources: &[Source],
    first: usize,
    deadline: Instant,
    phase: &mut Phase,
    tally: &mut Tally,
) -> usize {
    let warm = 2 * ctx.threads;
    closed_loop(
        eng,
        ctx.threads,
        None,
        |seq, _| (seq < warm).then(|| query(sources, first + seq).0),
        |c| {
            let (q, s) = query(sources, first + c.seq);
            tally.record(
                c.answer
                    .and_then(|a| check_answer(g, q, &a, reference(s, q))),
            );
        },
    );
    let first = first + warm;
    let before = phase.done.len();
    let mut submitted = 0;
    let wall = closed_loop(
        eng,
        ctx.threads,
        ctx.tr(),
        |seq, completed| {
            let more = seq < ROUND_QUERIES
                && (Instant::now() < deadline || before + completed < MIN_QUERIES);
            submitted += usize::from(more);
            more.then(|| query(sources, first + seq).0)
        },
        |c| {
            let (q, s) = query(sources, first + c.seq);
            let checked = c
                .answer
                .and_then(|a| check_answer(g, q, &a, reference(s, q)).map(|()| a));
            if let Some(a) = tally.record_ok(checked) {
                let st = a.stats();
                phase.done.push(Done {
                    latency_ms: ms(c.latency),
                    submit_us: c.submit.as_nanos() as f64 / 1e3,
                    edges: s.edges,
                    visitors: st.visitors_executed,
                    relaxations: st.relaxations,
                    reached: reference(s, q).iter().filter(|&&d| d != INF_DIST).count() as u64,
                });
            }
        },
    );
    phase.wall += wall;
    let served = (warm + submitted) as f64;
    phase
        .arrays_per_query
        .push(ratio(eng.state_arrays_allocated() as f64, served));
    warm + submitted
}

fn median_of(done: &[Done], f: impl Fn(&Done) -> f64) -> f64 {
    median(&done.iter().map(f).collect::<Vec<_>>())
}

fn build(n: u64, edges: asyncgt::graph::WeightedEdgeList) -> CsrGraph<u32> {
    GraphBuilder::from_edges(n, edges, true).build()
}

pub fn engine_mix(ctx: &Ctx) -> Outcome {
    let scale = ctx.scale(13);
    let n = 1u64 << scale;
    let mut edges = rmat_edges(scale, ctx.seed);
    assign_weights(&mut edges, WeightKind::Uniform, n, derive(ctx.seed, 3));
    let tr = ctx.tr();
    let mut tally = Tally::default();

    let mut sources: Vec<Source> = {
        let g0 = build(n, edges.clone());
        pick_sources(&g0, SOURCES, derive(ctx.seed, 2))
            .into_iter()
            .map(|(s, r)| Source {
                vertex: s,
                edges: component_edges(&g0, &r.dist),
                sssp: serial::dijkstra(&g0, s).dist,
                bfs: r.dist,
            })
            .collect()
    };
    if ctx.wrong_reference {
        corrupt(&mut sources[0].bfs);
    }

    let opts = EngineOpts {
        cfg: Config::with_threads(ctx.threads),
        max_concurrent: ctx.threads,
        ..EngineOpts::default()
    };
    // Set-up is the weighted CSR build plus engine start; every
    // repetition but the last shuts its engine down again, untimed.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let e = edges.clone();
        let start = Instant::now();
        let g = timed(tr, "setup.csr_build", 0, 0, || build(n, e)).0;
        with_engine(&g, &opts, &NoopRecorder, |_| {
            setup_s.push(start.elapsed().as_secs_f64());
            if let Some(tr) = tr {
                tr.record(tr.next_id(), 0, 0, "setup", start, Instant::now());
            }
        });
    }
    let e = edges.clone();
    drop(edges);
    let start = Instant::now();
    let g = timed(tr, "setup.csr_build", 0, 0, || build(n, e)).0;
    let tracing = ctx.tracer.is_some();
    let rec = ShardedRecorder::new(ctx.threads);
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut seq = 0;
    // Engine rounds until the deadline. Traced, plain and recorded rounds
    // alternate: the recorder is fixed for an engine's lifetime.
    for r in 0.. {
        let want_traced = tracing && r % 2 == 1;
        let short = |p: &Phase| p.done.len() < MIN_QUERIES;
        if Instant::now() >= deadline && !short(&plain) && !(tracing && short(&traced)) {
            break;
        }
        seq += if want_traced {
            with_engine(&g, &opts, &rec, |eng| {
                round(
                    ctx,
                    eng,
                    &g,
                    &sources,
                    seq,
                    deadline,
                    &mut traced,
                    &mut tally,
                )
            })
            .0
        } else {
            with_engine(&g, &opts, &NoopRecorder, |eng| {
                if r == 0 {
                    // The first engine's start ends the last set-up.
                    setup_s.push(start.elapsed().as_secs_f64());
                    trim_heap();
                    reset_peak_rss();
                }
                round(
                    ctx, eng, &g, &sources, seq, deadline, &mut plain, &mut tally,
                )
            })
            .0
        };
    }
    let peak_rss_mb = peak_rss_mb();

    if !tracing {
        let lat: Vec<f64> = plain.done.iter().map(|d| d.latency_ms).collect();
        let metrics = EndToEnd {
            setup_s: median(&setup_s),
            traversal_ms: median(&lat),
            query_p90_ms: quantile(&lat, 0.9),
            queries_per_s: ratio(lat.len() as f64, plain.wall.as_secs_f64()),
            mteps: median_of(&plain.done, |d| d.edges as f64 / (d.latency_ms * 1e3)),
            peak_rss_mb,
        }
        .metrics();
        return Outcome {
            tally,
            metrics,
            snapshot: None,
        };
    }

    let layers = layers(
        ctx, &g, &sources, &opts.cfg, &plain, &traced, &rec, &mut tally,
    );
    Outcome {
        tally,
        metrics: layers.metrics(),
        snapshot: Some(rec.snapshot()),
    }
}

#[allow(clippy::too_many_arguments)]
fn layers(
    ctx: &Ctx,
    g: &CsrGraph<u32>,
    sources: &[Source],
    cfg: &Config,
    plain: &Phase,
    traced: &Phase,
    rec: &ShardedRecorder,
    tally: &mut Tally,
) -> Layers {
    let tr = ctx.tr();
    let probe = |name, f: &mut dyn FnMut()| timed(tr, name, 0, 0, f);
    let plain_ms = median_of(&plain.done, |d| d.latency_ms);
    let mut l = Layers {
        obs_trace_overhead_frac: ratio(median_of(&traced.done, |d| d.latency_ms), plain_ms) - 1.0,
        core_visitors_per_edge: median_of(&traced.done, |d| {
            ratio(d.visitors as f64, d.edges as f64)
        }),
        core_relax_per_vertex: median_of(&traced.done, |d| {
            ratio(d.relaxations as f64, d.reached as f64)
        }),
        engine_submit_us: median_of(&traced.done, |d| d.submit_us),
        engine_state_arrays_per_query: median(&traced.arrays_per_query),
        ..Layers::default()
    };
    l.set_vq_counters(&rec.snapshot(), traced.done.len());

    probe("probe.graph_scan", &mut || {
        l.graph_scan_ns_per_edge = probes::scan_ns_per_edge(g, 5)
    });
    let n = g.num_vertices();
    let shift = lg2(n).saturating_sub(10);
    let s0 = &sources[0];
    let order = visit_order(&s0.bfs);
    let ops = probes::priority_stream(g, [(0, s0.vertex)].into_iter(), &order, |u| {
        s0.bfs[u as usize] + 1
    });
    probe("probe.vq_bucket", &mut || {
        l.vq_bucket_ns_per_visitor = probes::bucket_ns_per_visitor(&ops, shift, 3)
    });
    let pushes = probes::pushes(&ops);
    drop(ops);
    let fanout = ratio(s0.edges as f64, order.len() as f64).round() as u64;
    let mut exact = true;
    for (threads, out) in [
        (1, &mut l.vq_run_ns_per_visitor_1w),
        (ctx.threads, &mut l.vq_run_ns_per_visitor),
    ] {
        probe("probe.vq_run", &mut || {
            let (ns, ok) = probes::vq_run_ns_per_visitor(&pushes, fanout, threads, shift, 5);
            *out = ns;
            exact &= ok;
        });
    }
    tally.record(if exact {
        Ok(())
    } else {
        Err("push-only runtime probe lost or duplicated visitors".into())
    });

    // core, baselines and the engine probe use the same first queries of
    // the mix, one at a time.
    let mix: Vec<(Query, &[u64])> = (0..4)
        .map(|seq| {
            let (q, s) = query(sources, seq);
            (q, reference(s, q))
        })
        .collect();
    let cfg1 = Config {
        num_threads: 1,
        ..cfg.clone()
    };
    let (mut per_visitor_1w, mut scanned_1w, mut one_shot_ms, mut serial_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (seq, &(q, reference)) in mix.iter().enumerate() {
        let edges = query(sources, seq).1.edges as f64;
        let reached = reference.iter().filter(|&&d| d != INF_DIST).count() as f64;
        for (one_worker, c) in [(true, &cfg1), (false, cfg)] {
            let (res, dt) = timed(tr, "probe.one_shot", 0, 0, || traverse(g, q, c, None));
            let checked = res
                .map_err(|e| format!("one-shot {q:?}: {e}"))
                .and_then(|a| check_answer(g, q, &a, reference).map(|()| a));
            let Some(a) = tally.record_ok(checked) else {
                continue;
            };
            let visitors = a.stats().visitors_executed as f64;
            if one_worker {
                per_visitor_1w.push(ratio(dt.as_nanos() as f64, visitors));
                let relax_per_vertex = ratio(a.stats().relaxations as f64, reached);
                scanned_1w.push(ratio(edges * relax_per_vertex, visitors));
            } else {
                one_shot_ms.push(ms(dt));
            }
        }
        let (_, dt) = timed(tr, "probe.serial", 0, 0, || match q {
            Query::Bfs(s) => black_box(serial::bfs(g, s).dist),
            Query::Sssp(s) => black_box(serial::dijkstra(g, s).dist),
            Query::Cc => black_box(serial::connected_components(g)),
        });
        serial_ms.push(ms(dt));
    }
    l.core_ns_per_visitor_1w = median(&per_visitor_1w);
    l.baselines_speedup_vs_serial = ratio(median(&serial_ms), plain_ms);

    let ps = open_sem(&ctx.work_file("probe.agt"), g, None);
    let fetch = timed(tr, "probe.storage_fetch", 0, 0, || {
        probes::fetch_us(&ps, &order, if ctx.tiny { 200 } else { 2000 })
    })
    .0;
    if let Some(us) = tally.record_ok(fetch) {
        l.storage_fetch_us = us;
    }
    probe("probe.storage_prefetch", &mut || {
        l.storage_prefetch_us_per_batch = probes::prefetch_us_per_batch(&ps, &order, 100)
    });
    l.set_unexplained(median(&scanned_1w), 0.0);

    let e = engine_probe(ctx, g, g, cfg, &mix, tally);
    l.engine_overhead_ratio = ratio(e.latency_ms, median(&one_shot_ms));
    l
}
