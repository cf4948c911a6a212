//! Criterion micro-benchmarks for the analytics layer built on the
//! traversal building blocks: PageRank (async push vs power iteration),
//! diameter estimation, and relabeling.

use asyncgt::{double_sweep, pagerank, Config, PageRankParams};
use asyncgt_baselines::power_iteration;
use asyncgt_bench::workloads::rmat_undirected;
use asyncgt_graph::generators::RmatParams;
use asyncgt_graph::relabel::{by_bfs, by_degree, relabel};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

const SCALE: u32 = 12; // 4096 vertices undirected

fn bench_pagerank(c: &mut Criterion) {
    let g = rmat_undirected(RmatParams::RMAT_A, SCALE);
    let params = PageRankParams {
        damping: 0.85,
        tolerance: 1e-8,
    };
    let mut group = c.benchmark_group("pagerank");
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    group.bench_function("power_iteration", |b| {
        b.iter(|| power_iteration::pagerank(&g, 0.85, 100, 1e-8))
    });
    group.bench_function("async_push_1t", |b| {
        b.iter(|| pagerank(&g, &params, &Config::with_threads(1)))
    });
    group.bench_function("async_push_8t", |b| {
        b.iter(|| pagerank(&g, &params, &Config::with_threads(8)))
    });
    group.finish();
}

fn bench_diameter_and_relabel(c: &mut Criterion) {
    let g = rmat_undirected(RmatParams::RMAT_A, SCALE);
    let mut group = c.benchmark_group("structure");
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    group.bench_function("double_sweep", |b| {
        b.iter(|| double_sweep(&g, 0, &Config::with_threads(4)))
    });
    group.bench_function("relabel_by_degree", |b| {
        b.iter(|| relabel(&g, &by_degree(&g)))
    });
    group.bench_function("relabel_by_bfs", |b| b.iter(|| relabel(&g, &by_bfs(&g, 0))));
    group.finish();
}

criterion_group!(benches, bench_pagerank, bench_diameter_and_relabel);
criterion_main!(benches);
