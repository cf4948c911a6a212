//! Criterion micro-benchmarks of the traversal kernels: asynchronous
//! BFS/SSSP/CC against their serial and level-synchronous counterparts on a
//! fixed RMAT-A graph. These complement the table binaries (which regenerate
//! the paper's tables) with statistically sampled kernel timings.

use asyncgt::{try_bfs, try_connected_components, try_sssp, Config};
use asyncgt_baselines::{delta_stepping, level_sync, serial, union_find};
use asyncgt_bench::workloads::{rmat_directed, rmat_undirected, rmat_weighted};
use asyncgt_graph::generators::RmatParams;
use asyncgt_graph::weights::WeightKind;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

const SCALE: u32 = 13; // 8192 vertices, ~131k edges: quick but non-trivial

fn bench_bfs(c: &mut Criterion) {
    let g = rmat_directed(RmatParams::RMAT_A, SCALE);
    let mut group = c.benchmark_group("bfs");
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(20);
    group.bench_function("serial_bgl", |b| b.iter(|| serial::bfs(&g, 0)));
    group.bench_function("level_sync_4t", |b| b.iter(|| level_sync::bfs(&g, 0, 4)));
    group.bench_function("async_1t", |b| {
        b.iter(|| try_bfs(&g, 0, &Config::with_threads(1)).unwrap())
    });
    group.bench_function("async_4t", |b| {
        b.iter(|| try_bfs(&g, 0, &Config::with_threads(4)).unwrap())
    });
    group.bench_function("async_32t", |b| {
        b.iter(|| try_bfs(&g, 0, &Config::with_threads(32)).unwrap())
    });
    group.finish();
}

fn bench_sssp(c: &mut Criterion) {
    let g = rmat_weighted(RmatParams::RMAT_A, SCALE, WeightKind::Uniform);
    let mut group = c.benchmark_group("sssp");
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(20);
    group.bench_function("serial_dijkstra", |b| b.iter(|| serial::dijkstra(&g, 0)));
    group.bench_function("delta_stepping", |b| {
        b.iter(|| delta_stepping::sssp(&g, 0, delta_stepping::default_delta(1 << SCALE, 16)))
    });
    group.bench_function("async_1t", |b| {
        b.iter(|| try_sssp(&g, 0, &Config::with_threads(1)).unwrap())
    });
    group.bench_function("async_4t", |b| {
        b.iter(|| try_sssp(&g, 0, &Config::with_threads(4)).unwrap())
    });
    group.bench_function("async_4t_pruned", |b| {
        b.iter(|| try_sssp(&g, 0, &Config::with_threads(4).with_pruning()).unwrap())
    });
    group.finish();
}

fn bench_cc(c: &mut Criterion) {
    let g = rmat_undirected(RmatParams::RMAT_A, SCALE);
    let mut group = c.benchmark_group("cc");
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(20);
    group.bench_function("serial_bgl", |b| {
        b.iter(|| serial::connected_components(&g))
    });
    group.bench_function("union_find", |b| {
        b.iter(|| union_find::connected_components(&g))
    });
    group.bench_function("label_prop_4t", |b| {
        b.iter(|| level_sync::connected_components(&g, 4))
    });
    group.bench_function("async_4t", |b| {
        b.iter(|| try_connected_components(&g, &Config::with_threads(4)).unwrap())
    });
    group.bench_function("async_4t_pruned", |b| {
        b.iter(|| try_connected_components(&g, &Config::with_threads(4).with_pruning()).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_bfs, bench_sssp, bench_cc);
criterion_main!(benches);
