//! Stress tests for thread oversubscription (paper §IV-A): hundreds of
//! threads on a machine with far fewer cores must remain correct, terminate,
//! and not deadlock — including with handler panics and back-to-back runs.

use asyncgt::{try_bfs, try_connected_components, try_sssp, Config};
use asyncgt_baselines::serial;
use asyncgt_graph::generators::{RmatGenerator, RmatParams};
use asyncgt_graph::weights::{weighted_copy, WeightKind};
use asyncgt_integration_tests::random_undirected;
use asyncgt_vq::{PushCtx, VisitHandler, Visitor, VisitorQueue, VqConfig};

#[test]
fn bfs_at_256_threads() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 11, 8, 21).directed();
    let expect = serial::bfs(&g, 0);
    let out = try_bfs(&g, 0, &Config::with_threads(256)).unwrap();
    assert_eq!(out.dist, expect.dist);
    assert_eq!(out.stats.num_threads, 256);
}

#[test]
fn sssp_at_512_threads() {
    // The paper's headline oversubscription figure: 512 threads.
    let g = weighted_copy(
        &RmatGenerator::new(RmatParams::RMAT_B, 10, 8, 22).directed(),
        WeightKind::Uniform,
        1,
    );
    let expect = serial::dijkstra(&g, 0);
    let out = try_sssp(&g, 0, &Config::with_threads(512)).unwrap();
    assert_eq!(out.dist, expect.dist);
}

#[test]
fn cc_at_256_threads() {
    let g = random_undirected(2000, 6000, 23);
    let expect = serial::connected_components(&g);
    let out = try_connected_components(&g, &Config::with_threads(256)).unwrap();
    assert_eq!(out.ccid, expect);
}

#[test]
fn back_to_back_runs_share_no_state() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 10, 8, 24).directed();
    let expect = serial::bfs(&g, 0);
    for i in 0..8 {
        let threads = 1 << (i % 8); // 1..128
        let out = try_bfs(&g, 0, &Config::with_threads(threads)).unwrap();
        assert_eq!(out.dist, expect.dist, "iteration {i}, threads {threads}");
    }
}

#[test]
fn panic_at_high_thread_count_does_not_hang() {
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct V(u64);
    impl Visitor for V {
        fn target(&self) -> u64 {
            self.0
        }
    }
    struct Bomb;
    impl VisitHandler<V> for Bomb {
        fn visit(&self, v: V, ctx: &mut PushCtx<'_, V>) {
            if v.0 == 500 {
                panic!("stress bomb");
            }
            if v.0 < 2000 {
                ctx.push(V(v.0 + 1));
            }
        }
    }
    let result =
        std::panic::catch_unwind(|| VisitorQueue::run(&VqConfig::with_threads(128), &Bomb, [V(0)]));
    assert!(result.is_err());
}

#[test]
fn random_visitor_panic_at_8x_oversubscription_unwinds_promptly() {
    // 8x-oversubscribed workers (8 * available cores), a handler that
    // panics on one randomly-chosen visitor mid-flood: the run must unwind
    // within a generous timeout — no hang, no deadlock on parked workers.
    let cores = std::thread::available_parallelism().map_or(8, |p| p.get());
    let threads = 8 * cores;

    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct V(u64);
    impl Visitor for V {
        fn target(&self) -> u64 {
            self.0
        }
    }
    struct RandomBomb {
        victim: u64,
    }
    impl VisitHandler<V> for RandomBomb {
        fn visit(&self, v: V, ctx: &mut PushCtx<'_, V>) {
            if v.0 == self.victim {
                panic!("random bomb at visitor {}", v.0);
            }
            // Flood: two children per visitor keeps every worker busy.
            if v.0 < 50_000 {
                ctx.push(V(2 * v.0 + 1));
                ctx.push(V(2 * v.0 + 2));
            }
        }
    }

    // Derive the victim from wall-clock entropy so repeated CI runs cover
    // different panic sites; print it so failures reproduce.
    let victim = 1 + std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos() as u64
        % 40_000;
    println!("threads={threads} victim={victim}");

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let result = std::panic::catch_unwind(|| {
            VisitorQueue::run(
                &VqConfig::with_threads(threads),
                &RandomBomb { victim },
                [V(0)],
            )
        });
        tx.send(result.is_err()).unwrap();
    });
    match rx.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(panicked) => assert!(panicked, "victim {victim} must be visited and panic"),
        Err(_) => panic!("run hung after handler panic (threads={threads}, victim={victim})"),
    }
}

#[test]
fn empty_and_tiny_workloads_at_many_threads() {
    // More threads than work items: most workers never see a visitor.
    let g = RmatGenerator::new(RmatParams::RMAT_A, 6, 4, 25).directed();
    let out = try_bfs(&g, 0, &Config::with_threads(200)).unwrap();
    assert_eq!(out.dist, serial::bfs(&g, 0).dist);
}

#[test]
fn mixed_thread_counts_converge_identically() {
    let g = weighted_copy(
        &RmatGenerator::new(RmatParams::RMAT_A, 10, 8, 26).directed(),
        WeightKind::LogUniform,
        9,
    );
    let reference = try_sssp(&g, 0, &Config::with_threads(1)).unwrap();
    for threads in [2usize, 7, 33, 100, 256] {
        let out = try_sssp(&g, 0, &Config::with_threads(threads)).unwrap();
        assert_eq!(out.dist, reference.dist, "threads={threads}");
    }
}
