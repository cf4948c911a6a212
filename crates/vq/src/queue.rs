//! The one-shot visitor queue: one traversal, run as the only query of an
//! engine whose workers are spawned for it and joined at termination.
//!
//! Layout per worker:
//!
//! * a **private priority queue** (`BucketQueue`: O(1) bucketed
//!   priorities with optional within-bucket semi-sort) that only its owner
//!   touches — no lock;
//! * a shared **mailbox** (`Mailbox`) other workers deliver into: a
//!   `Mutex<Vec<V>>` inbox whose condvar parks the idle owner;
//! * an **outbox** staging remote pushes, flushed in batches so the
//!   inbox lock and the wake-a-parked-owner syscall are amortized over
//!   many visitors — the mechanism by which the paper's
//!   "multiple queues with a hash function reduces lock contention".
//!
//! Termination uses a per-query counter of *incomplete* visitors:
//! incremented no later than a visitor becomes drainable by another
//! worker, decremented only after its `visit` returns, so it reaches zero
//! only when no visitor is queued anywhere **and** none is in flight —
//! exactly the paper's "the traversal is complete when the visitor queue
//! is empty, and all visitors have completed" (the batching that keeps it
//! off the hot path is in the worker module docs).
//!
//! A run is `crate::engine::serve` with one submitted query whose items
//! carry the tag `()` — so a queued item is exactly `size_of::<V>()` bytes
//! — and whose handler is borrowed as `&H`. Seeding, admission,
//! termination, poison and the idle park are the engine's; the run's
//! statistics are the query's counts plus the engine's parks, inbox
//! batches and wall time.

use crate::config::VqConfig;
use crate::engine::{serve, EngineConfig, EngineShared, QueryError};
use crate::visitor::{AbortReason, FallibleVisitHandler, VisitHandler, Visitor};
use asyncgt_obs::{NoopRecorder, Recorder};
use std::time::Duration;

/// Aggregate statistics from one traversal run or engine query — the
/// one stats type (core re-exports it as `TraversalStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Total visitors executed (≥ vertices visited; label-correcting
    /// traversals may visit a vertex multiple times, paper §III-B).
    pub visitors_executed: u64,
    /// Executions that expanded their vertex: the handler's `Ok(true)`s
    /// (label relaxations, Algorithm 2 line 9). `visitors_executed -
    /// relaxations` is the redundant work (revisits).
    pub relaxations: u64,
    /// Total visitors pushed. Equals `visitors_executed` when the run
    /// terminates normally; aborted (or poisoned) runs return partial
    /// stats where `visitors_pushed >= visitors_executed`, because
    /// visitors still queued when the run came down were dropped
    /// unexecuted.
    pub visitors_pushed: u64,
    /// Pushes that stayed on the pushing worker's own queue (no lock).
    pub local_pushes: u64,
    /// Visitors dropped unexecuted after a handler aborted the run (always
    /// 0 for a run that terminated normally).
    pub visitors_dropped: u64,
    /// Times a worker parked on its inbox condvar (idle periods).
    pub parks: u64,
    /// Non-empty inbox drains (each is one batch of delivered mail).
    pub inbox_batches: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Worker threads used.
    pub num_threads: usize,
}

/// Queue selection: Fibonacci multiplicative hash of the target vertex,
/// mapped to `[0, num_queues)` with a widening multiply. The multiply uses
/// all 64 hash bits and is exactly uniform over them for any queue count —
/// unlike `(h >> 32) % n`, whose modulo over-weights low residues for
/// non-power-of-two `n` — so "high-cost vertices will be uniformly
/// distributed across the queues" (paper §III-A) holds for every thread
/// count.
#[inline]
pub(crate) fn route_of(vertex: u64, num_queues: usize) -> usize {
    let h = vertex.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h as u128 * num_queues as u128) >> 64) as usize
}

/// An aborted traversal: the first [`AbortReason`] a fallible handler
/// returned, plus the (partial) statistics accumulated before teardown.
pub struct AbortedRun {
    /// The first `Err` a handler surfaced.
    pub reason: AbortReason,
    /// Partial statistics: counts cover work completed before the abort.
    pub stats: RunStats,
}

impl std::fmt::Debug for AbortedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AbortedRun")
            .field("reason", &self.reason)
            .field("stats", &self.stats)
            .finish()
    }
}

impl std::fmt::Display for AbortedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "traversal aborted after {} visitors: {}",
            self.stats.visitors_executed, self.reason
        )
    }
}

impl std::error::Error for AbortedRun {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.reason.as_ref())
    }
}

/// The multithreaded asynchronous visitor queue (paper Algorithms 1 & 3's
/// `pri_q_visit`).
pub struct VisitorQueue;

impl VisitorQueue {
    /// Run a traversal to completion: seed the queues with `init`, spawn
    /// `cfg.num_threads` workers, and return once every visitor (including
    /// all transitively emitted ones) has completed.
    ///
    /// # Panics
    /// Re-raises any panic from a handler after all workers have exited.
    pub fn run<V, H, I>(cfg: &VqConfig, handler: &H, init: I) -> RunStats
    where
        V: Visitor,
        H: VisitHandler<V>,
        I: IntoIterator<Item = V>,
    {
        Self::run_recorded(cfg, handler, init, &NoopRecorder)
    }

    /// [`Self::run`] with a metrics [`Recorder`]. The recorder is a
    /// monomorphized type parameter, and every instrumentation site is
    /// guarded by `R::ENABLED`, so running with [`NoopRecorder`] (what
    /// [`Self::run`] does) compiles to the uninstrumented hot path.
    pub fn run_recorded<V, H, I, R>(cfg: &VqConfig, handler: &H, init: I, recorder: &R) -> RunStats
    where
        V: Visitor,
        H: VisitHandler<V>,
        I: IntoIterator<Item = V>,
        R: Recorder,
    {
        // The blanket FallibleVisitHandler impl for VisitHandler never
        // returns Err, so an abort is impossible here.
        Self::try_run_recorded(cfg, handler, init, recorder)
            .unwrap_or_else(|a| unreachable!("infallible handler aborted: {}", a.reason))
    }

    /// Fallible run: like [`Self::run`], but a handler returning `Err`
    /// aborts the traversal — the first reason is captured, all workers
    /// drain out promptly (parked ones are woken through the poison wakeup
    /// machinery), and the reason is returned with the partial stats.
    ///
    /// # Panics
    /// Re-raises any panic from a handler after all workers have exited.
    pub fn try_run<V, H, I>(cfg: &VqConfig, handler: &H, init: I) -> Result<RunStats, AbortedRun>
    where
        V: Visitor,
        H: FallibleVisitHandler<V>,
        I: IntoIterator<Item = V>,
    {
        Self::try_run_recorded(cfg, handler, init, &NoopRecorder)
    }

    /// [`Self::try_run`] with a metrics [`Recorder`].
    pub fn try_run_recorded<V, H, I, R>(
        cfg: &VqConfig,
        handler: &H,
        init: I,
        recorder: &R,
    ) -> Result<RunStats, AbortedRun>
    where
        V: Visitor,
        H: FallibleVisitHandler<V>,
        I: IntoIterator<Item = V>,
        R: Recorder,
    {
        // One query in one slot: admission never waits.
        let ecfg = EngineConfig {
            cfg: cfg.clone(),
            max_concurrent: 1,
        };
        let (outcome, engine) = serve(&ecfg, recorder, |shared: &EngineShared<V, (), &H>| {
            shared
                .submit(recorder, handler, init)
                .expect("a fresh engine admits its first query")
                .wait(shared.inboxes.len())
        });
        let whole_run = |stats: RunStats| RunStats {
            parks: engine.parks,
            inbox_batches: engine.inbox_batches,
            elapsed: engine.elapsed,
            ..stats
        };
        match outcome {
            Ok(stats) => Ok(whole_run(stats)),
            Err(QueryError::Aborted(AbortedRun { reason, stats })) => Err(AbortedRun {
                reason,
                stats: whole_run(stats),
            }),
            Err(QueryError::EnginePoisoned) => {
                unreachable!("serve re-raises the panic that poisoned the run")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Tagged;
    use crate::PushCtx;
    use std::sync::atomic::{AtomicU64, Ordering as AO};
    use std::time::Instant;

    /// Visitor that walks a chain 0..n, one hop per visit.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Chain(u64);
    impl Visitor for Chain {
        fn target(&self) -> u64 {
            self.0
        }
    }

    struct ChainHandler {
        n: u64,
        visits: AtomicU64,
    }
    impl VisitHandler<Chain> for ChainHandler {
        fn visit(&self, v: Chain, ctx: &mut PushCtx<'_, Chain>) {
            self.visits.fetch_add(1, AO::Relaxed);
            if v.0 + 1 < self.n {
                ctx.push(Chain(v.0 + 1));
            }
        }
    }

    #[test]
    fn chain_completes_single_thread() {
        let h = ChainHandler {
            n: 1000,
            visits: AtomicU64::new(0),
        };
        let s = VisitorQueue::run(&VqConfig::with_threads(1), &h, [Chain(0)]);
        assert_eq!(h.visits.load(AO::Relaxed), 1000);
        assert_eq!(s.visitors_executed, 1000);
        assert_eq!(s.visitors_pushed, 1000);
    }

    #[test]
    fn chain_completes_many_threads() {
        for threads in [2, 4, 16, 64] {
            let h = ChainHandler {
                n: 5000,
                visits: AtomicU64::new(0),
            };
            let s = VisitorQueue::run(&VqConfig::with_threads(threads), &h, [Chain(0)]);
            assert_eq!(h.visits.load(AO::Relaxed), 5000, "threads={threads}");
            assert_eq!(s.visitors_executed, 5000);
        }
    }

    #[test]
    fn empty_init_terminates_immediately() {
        let h = ChainHandler {
            n: 10,
            visits: AtomicU64::new(0),
        };
        let s = VisitorQueue::run(&VqConfig::with_threads(8), &h, std::iter::empty());
        assert_eq!(s.visitors_executed, 0);
        assert_eq!(h.visits.load(AO::Relaxed), 0);
    }

    /// Fan-out visitor: each visit at depth d pushes two children until a
    /// depth limit — stresses termination with exponential work.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Fan {
        depth: u64,
        id: u64,
    }
    impl Visitor for Fan {
        fn target(&self) -> u64 {
            self.id
        }
    }
    struct FanHandler {
        max_depth: u64,
        visits: AtomicU64,
    }
    impl VisitHandler<Fan> for FanHandler {
        fn visit(&self, v: Fan, ctx: &mut PushCtx<'_, Fan>) {
            self.visits.fetch_add(1, AO::Relaxed);
            if v.depth < self.max_depth {
                ctx.push(Fan {
                    depth: v.depth + 1,
                    id: v.id * 2 + 1,
                });
                ctx.push(Fan {
                    depth: v.depth + 1,
                    id: v.id * 2 + 2,
                });
            }
        }
    }

    #[test]
    fn fan_out_visits_full_binary_tree() {
        let h = FanHandler {
            max_depth: 12,
            visits: AtomicU64::new(0),
        };
        let s = VisitorQueue::run(&VqConfig::with_threads(8), &h, [Fan { depth: 0, id: 0 }]);
        let expect = (1u64 << 13) - 1; // 2^(d+1) - 1 nodes
        assert_eq!(h.visits.load(AO::Relaxed), expect);
        assert_eq!(s.visitors_executed, expect);
        assert_eq!(s.visitors_pushed, expect);
    }

    /// All visitors for one vertex must execute on one thread (exclusivity).
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Probe {
        vertex: u64,
        round: u64,
    }
    impl Visitor for Probe {
        fn target(&self) -> u64 {
            self.vertex
        }
    }
    struct ExclusivityHandler {
        // Non-atomic counters, one per vertex: safe only if routing really
        // serializes same-vertex visitors on one thread. Any data race here
        // would corrupt counts (and trip TSan/Miri).
        counts: Vec<crossbeam_like::CachePaddedCell>,
        rounds: u64,
    }
    mod crossbeam_like {
        use std::cell::UnsafeCell;
        /// A plain u64 cell mutated without synchronization; sound only
        /// under the engine's same-vertex-same-thread guarantee.
        pub struct CachePaddedCell(UnsafeCell<u64>);
        unsafe impl Sync for CachePaddedCell {}
        impl CachePaddedCell {
            pub fn new() -> Self {
                CachePaddedCell(UnsafeCell::new(0))
            }
            /// # Safety
            /// Caller must guarantee exclusive access (vertex ownership).
            pub unsafe fn bump(&self) -> u64 {
                let p = self.0.get();
                *p += 1;
                *p
            }
            pub fn get(&self) -> u64 {
                unsafe { *self.0.get() }
            }
        }
    }
    impl VisitHandler<Probe> for ExclusivityHandler {
        fn visit(&self, v: Probe, ctx: &mut PushCtx<'_, Probe>) {
            // SAFETY: the engine routes all visitors for `v.vertex` to one
            // worker, so this cell is never accessed concurrently.
            let seen = unsafe { self.counts[v.vertex as usize].bump() };
            if seen < self.rounds {
                ctx.push(Probe {
                    vertex: v.vertex,
                    round: seen,
                });
            }
        }
    }

    #[test]
    fn same_vertex_visitors_are_serialized() {
        let n = 64;
        let rounds = 200;
        let h = ExclusivityHandler {
            counts: (0..n)
                .map(|_| crossbeam_like::CachePaddedCell::new())
                .collect(),
            rounds,
        };
        let init: Vec<Probe> = (0..n as u64)
            .map(|v| Probe {
                vertex: v,
                round: 0,
            })
            .collect();
        VisitorQueue::run(&VqConfig::with_threads(16), &h, init);
        for c in &h.counts {
            assert_eq!(c.get(), rounds, "unsynchronized counter corrupted");
        }
    }

    #[test]
    fn priority_order_respected_single_thread() {
        // With one thread and all work pre-seeded, pops must follow Ord.
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        struct P(u64);
        impl Visitor for P {
            fn target(&self) -> u64 {
                self.0
            }
        }
        struct Rec(parking_lot::Mutex<Vec<u64>>);
        impl VisitHandler<P> for Rec {
            fn visit(&self, v: P, _ctx: &mut PushCtx<'_, P>) {
                self.0.lock().push(v.0);
            }
        }
        let h = Rec(parking_lot::Mutex::new(Vec::new()));
        VisitorQueue::run(
            &VqConfig::with_threads(1),
            &h,
            [P(5), P(1), P(9), P(3), P(7)],
        );
        assert_eq!(*h.0.lock(), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn handler_panic_propagates_without_hanging() {
        struct Bomb;
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        struct B(u64);
        impl Visitor for B {
            fn target(&self) -> u64 {
                self.0
            }
        }
        impl VisitHandler<B> for Bomb {
            fn visit(&self, v: B, ctx: &mut PushCtx<'_, B>) {
                if v.0 == 42 {
                    panic!("boom");
                }
                ctx.push(B(v.0 + 1));
            }
        }
        let result = std::panic::catch_unwind(|| {
            VisitorQueue::run(&VqConfig::with_threads(4), &Bomb, [B(0)])
        });
        assert!(result.is_err(), "panic must propagate to the caller");
    }

    /// Fallible chain handler that fails at a chosen vertex, and reports
    /// the visits of vertices divisible by 3 as stale (not expanded).
    struct FailingChain {
        n: u64,
        fail_at: u64,
        visits: AtomicU64,
    }
    impl crate::FallibleVisitHandler<Chain> for FailingChain {
        fn try_visit(
            &self,
            v: Chain,
            ctx: &mut PushCtx<'_, Chain>,
        ) -> Result<bool, crate::AbortReason> {
            self.visits.fetch_add(1, AO::Relaxed);
            if v.0 == self.fail_at {
                return Err(format!("injected failure at vertex {}", v.0).into());
            }
            if v.0 + 1 < self.n {
                ctx.push(Chain(v.0 + 1));
            }
            Ok(!v.0.is_multiple_of(3))
        }
    }

    #[test]
    fn try_run_with_infallible_handler_matches_run() {
        let h = ChainHandler {
            n: 1000,
            visits: AtomicU64::new(0),
        };
        let s = VisitorQueue::try_run(&VqConfig::with_threads(4), &h, [Chain(0)]).unwrap();
        assert_eq!(h.visits.load(AO::Relaxed), 1000);
        assert_eq!(s.visitors_executed, 1000);
    }

    #[test]
    fn failing_visit_aborts_run_with_reason_and_partial_stats() {
        for threads in [1, 4, 32] {
            // Without a failure, relaxations count exactly the visits that
            // returned `Ok(true)`: the 2000 of 0..3000 not divisible by 3.
            let h = FailingChain {
                n: 3000,
                fail_at: u64::MAX,
                visits: AtomicU64::new(0),
            };
            let s = VisitorQueue::try_run(&VqConfig::with_threads(threads), &h, [Chain(0)])
                .expect("no failure injected");
            assert_eq!(s.visitors_executed, 3000, "threads={threads}");
            assert_eq!(s.relaxations, 2000, "threads={threads}");

            let h = FailingChain {
                n: 10_000,
                fail_at: 500,
                visits: AtomicU64::new(0),
            };
            let err = VisitorQueue::try_run(&VqConfig::with_threads(threads), &h, [Chain(0)])
                .expect_err("run must abort");
            assert!(
                err.reason.to_string().contains("vertex 500"),
                "threads={threads}: {}",
                err.reason
            );
            // The chain is strictly sequential, so exactly 501 visits ran
            // (0..=500) regardless of thread count — nothing after the
            // failure may execute.
            assert_eq!(h.visits.load(AO::Relaxed), 501, "threads={threads}");
            assert_eq!(err.stats.visitors_executed, 501);
            // The failing visit counts as executed, not as expanded: 333 of
            // 0..500 are not divisible by 3.
            assert_eq!(err.stats.relaxations, 333, "threads={threads}");
            assert!(err.stats.relaxations <= err.stats.visitors_executed);
            // Partial-stats invariant: an aborted run drops queued work,
            // so pushed may exceed executed but never the reverse (the
            // `pushed == executed` equality only holds at normal
            // termination).
            assert!(
                err.stats.visitors_pushed >= err.stats.visitors_executed,
                "threads={threads}: pushed {} < executed {}",
                err.stats.visitors_pushed,
                err.stats.visitors_executed
            );
            // Whatever was pushed and not executed drained as a drop.
            assert_eq!(
                err.stats.visitors_pushed,
                err.stats.visitors_executed + err.stats.visitors_dropped
            );
            assert!(err.to_string().contains("aborted after 501 visitors"));
        }
    }

    #[test]
    fn batch_drain_preserves_order_and_calls_prepare() {
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        struct P(u64);
        impl Visitor for P {
            fn target(&self) -> u64 {
                self.0
            }
        }
        struct Rec {
            order: parking_lot::Mutex<Vec<u64>>,
            prepared: AtomicU64,
        }
        impl crate::FallibleVisitHandler<P> for Rec {
            fn try_visit(
                &self,
                v: P,
                _ctx: &mut PushCtx<'_, P>,
            ) -> Result<bool, crate::AbortReason> {
                self.order.lock().push(v.0);
                Ok(true)
            }
            fn prepare_batch(&self, batch: &[P]) {
                self.prepared.fetch_add(1, AO::Relaxed);
                assert!(
                    batch.windows(2).all(|w| w[0] <= w[1]),
                    "batch must arrive in execution (semi-sorted) order"
                );
            }
        }
        let h = Rec {
            order: parking_lot::Mutex::new(Vec::new()),
            prepared: AtomicU64::new(0),
        };
        let cfg = VqConfig {
            io_batch: 4,
            ..VqConfig::with_threads(1)
        };
        VisitorQueue::try_run(&cfg, &h, (0..32u64).rev().map(P)).unwrap();
        // Batched drains must not change execution order.
        assert_eq!(*h.order.lock(), (0..32).collect::<Vec<u64>>());
        assert!(
            h.prepared.load(AO::Relaxed) > 0,
            "multi-visitor drains must announce the batch"
        );
    }

    #[test]
    fn batch_drain_equivalent_across_sizes_and_threads() {
        let expect = (1u64 << 11) - 1;
        for threads in [1, 4, 16] {
            for bd in [1, 4, 64] {
                let h = FanHandler {
                    max_depth: 10,
                    visits: AtomicU64::new(0),
                };
                let cfg = VqConfig {
                    io_batch: bd,
                    ..VqConfig::with_threads(threads)
                };
                let s = VisitorQueue::run(&cfg, &h, [Fan { depth: 0, id: 0 }]);
                assert_eq!(
                    h.visits.load(AO::Relaxed),
                    expect,
                    "threads={threads} bd={bd}"
                );
                assert_eq!(s.visitors_executed, expect);
                // Normal termination: the doc invariant holds exactly.
                assert_eq!(s.visitors_pushed, s.visitors_executed);
            }
        }
    }

    #[test]
    fn abort_wakes_parked_workers_promptly() {
        // Many oversubscribed workers, sequential work: most workers park.
        // The abort must wake and release all of them well within the test
        // timeout (a hang here is the bug this guards against).
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let h = FailingChain {
                n: 100_000,
                fail_at: 2_000,
                visits: AtomicU64::new(0),
            };
            let err = VisitorQueue::try_run(&VqConfig::with_threads(64), &h, [Chain(0)])
                .expect_err("run must abort");
            tx.send(err.stats.visitors_executed).unwrap();
        });
        let executed = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("aborted run must tear down promptly, not hang");
        assert_eq!(executed, 2_001);
    }

    #[test]
    fn oversubscription_far_beyond_cores() {
        let h = ChainHandler {
            n: 2000,
            visits: AtomicU64::new(0),
        };
        let s = VisitorQueue::run(&VqConfig::with_threads(128), &h, [Chain(0)]);
        assert_eq!(h.visits.load(AO::Relaxed), 2000);
        assert_eq!(s.num_threads, 128);
    }

    #[test]
    fn back_to_back_one_shots_never_sleep_out_the_park() {
        // Each run ends with oversubscribed workers heading for their idle
        // park, racing the termination and teardown wakes. A lost wake
        // leaves a worker asleep for the whole park bound and the join
        // waits on it, so 100 runs would take 100 parks (25 s).
        let runs = 100;
        let start = Instant::now();
        for _ in 0..runs {
            let h = ChainHandler {
                n: 1_000,
                visits: AtomicU64::new(0),
            };
            let s = VisitorQueue::run(&VqConfig::with_threads(16), &h, [Chain(0)]);
            assert_eq!(s.visitors_executed, 1_000);
        }
        let took = start.elapsed();
        assert!(
            took < crate::engine::PARK * runs / 5,
            "{runs} one-shot runs took {took:?}: workers slept out their park"
        );
    }

    #[test]
    fn local_push_fast_path_used_with_one_thread() {
        let h = ChainHandler {
            n: 100,
            visits: AtomicU64::new(0),
        };
        let s = VisitorQueue::run(&VqConfig::with_threads(1), &h, [Chain(0)]);
        // Every non-seed push targets the only queue: all local.
        assert_eq!(s.local_pushes, 99);
    }

    #[test]
    fn sync_but_not_send_handler_runs() {
        // One-shot handlers are borrowed by the run, never sent to a
        // worker, so `Sync` is all they need. A `MutexGuard` is `Sync`
        // but not `Send`; this test does not compile if the one-shot path
        // ever requires `Send` (or an `Arc`) of its handler again.
        struct Pinned<'a> {
            chain: ChainHandler,
            _not_send: std::sync::MutexGuard<'a, ()>,
        }
        impl VisitHandler<Chain> for Pinned<'_> {
            fn visit(&self, v: Chain, ctx: &mut PushCtx<'_, Chain>) {
                self.chain.visit(v, ctx);
            }
        }
        let lock = std::sync::Mutex::new(());
        let h = Pinned {
            chain: ChainHandler {
                n: 500,
                visits: AtomicU64::new(0),
            },
            _not_send: lock.lock().unwrap(),
        };
        let s = VisitorQueue::run(&VqConfig::with_threads(4), &h, [Chain(0)]);
        assert_eq!(s.visitors_executed, 500);
        assert_eq!(h.chain.visits.load(AO::Relaxed), 500);
    }

    /// Bytes one queued item occupies when items carry tag `T`.
    fn queued_item_size<V: Visitor, T>() -> usize {
        std::mem::size_of::<Tagged<V, T>>()
    }

    /// The layout of core's SSSP/BFS visitor: (dist, vertex, parent).
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Path {
        dist: u64,
        vertex: u32,
        parent: u32,
    }
    impl Visitor for Path {
        fn target(&self) -> u64 {
            self.vertex as u64
        }
    }

    #[test]
    fn one_shot_queues_store_bare_visitors() {
        // A query tag would widen every queued and mailed item (to 24
        // bytes here); one-shot runs must carry the bare visitor.
        assert_eq!(std::mem::size_of::<Tagged<Path, ()>>(), 16);
        assert_eq!(
            queued_item_size::<Chain, ()>(),
            std::mem::size_of::<Chain>()
        );
    }

    #[test]
    fn engine_queues_tag_path_visitors_in_24_bytes() {
        // The engine's item is the bare visitor plus a 4-byte query id:
        // 16 + 4 bytes, padded to 24 by the visitor's 8-byte alignment. No
        // variant tag and no handler pointer ride along.
        type Multi = u32;
        assert_eq!(queued_item_size::<Path, Multi>(), 24);
    }

    #[test]
    fn route_is_uniform_for_non_power_of_two_queue_counts() {
        // The old `(h >> 32) % n` mapping over-weighted low queue indices
        // for non-power-of-two n; the widening multiply must not. Route a
        // large block of consecutive vertex ids (the common CSR id space)
        // and check every queue stays within ±5% of the expected share.
        for &queues in &[3usize, 5, 6, 7, 12, 48, 96, 100] {
            let samples: u64 = 480_000;
            let mut counts = vec![0u64; queues];
            for v in 0..samples {
                counts[route_of(v, queues)] += 1;
            }
            let expect = samples as f64 / queues as f64;
            for (q, &c) in counts.iter().enumerate() {
                let rel = (c as f64 - expect).abs() / expect;
                assert!(
                    rel < 0.05,
                    "queues={queues} queue {q}: {c} vs expected {expect:.0} ({:.1}% off)",
                    rel * 100.0
                );
            }
        }
    }

    #[test]
    fn route_stays_in_bounds_at_extremes() {
        for &queues in &[1usize, 2, 3, 63, 64, 65, 1024] {
            for v in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63] {
                assert!(route_of(v, queues) < queues);
            }
        }
    }

    #[test]
    fn recorder_is_fed_per_settle_not_per_visitor() {
        use asyncgt_obs::{Counter, Recorder};

        /// Counts `counter` calls, and the executed visitors they carry.
        #[derive(Default)]
        struct Counting {
            calls: AtomicU64,
            executed: AtomicU64,
        }
        impl Recorder for Counting {
            const ENABLED: bool = true;
            fn counter(&self, c: Counter, n: u64) {
                self.calls.fetch_add(1, AO::Relaxed);
                if c == Counter::VisitorsExecuted {
                    self.executed.fetch_add(n, AO::Relaxed);
                }
            }
        }

        let h = FanHandler {
            max_depth: 16,
            visits: AtomicU64::new(0),
        };
        let rec = Counting::default();
        let s = VisitorQueue::run_recorded(
            &VqConfig::with_threads(1),
            &h,
            [Fan { depth: 0, id: 0 }],
            &rec,
        );
        assert_eq!(s.visitors_executed, (1 << 17) - 1);
        assert_eq!(rec.executed.load(AO::Relaxed), s.visitors_executed);
        let calls = rec.calls.load(AO::Relaxed);
        assert!(
            calls * 32 < s.visitors_executed,
            "{calls} counter calls for {} visitors",
            s.visitors_executed
        );
    }

    #[test]
    fn recorded_run_matches_plain_run_and_counts_balance() {
        use asyncgt_obs::ShardedRecorder;

        let h1 = ChainHandler {
            n: 3000,
            visits: AtomicU64::new(0),
        };
        let plain = VisitorQueue::run(&VqConfig::with_threads(4), &h1, [Chain(0)]);

        let h2 = ChainHandler {
            n: 3000,
            visits: AtomicU64::new(0),
        };
        let rec = ShardedRecorder::new(4);
        let recorded =
            VisitorQueue::run_recorded(&VqConfig::with_threads(4), &h2, [Chain(0)], &rec);

        // Identical work with and without metrics.
        assert_eq!(plain.visitors_executed, recorded.visitors_executed);
        assert_eq!(plain.visitors_pushed, recorded.visitors_pushed);
        assert_eq!(h1.visits.load(AO::Relaxed), h2.visits.load(AO::Relaxed));

        // Recorder totals agree with the engine's own accounting.
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter("visitors_executed"),
            recorded.visitors_executed
        );
        assert_eq!(snap.counter("visitors_pushed"), recorded.visitors_pushed);
        assert_eq!(snap.counter("local_pushes"), recorded.local_pushes);
        assert_eq!(
            snap.counter("visitors_pushed"),
            snap.counter("visitors_executed"),
            "at termination every pushed visitor has executed"
        );
        // One service-time observation per executed visitor.
        assert_eq!(
            snap.histograms
                .get(asyncgt_obs::HistKind::ServiceTimeNs)
                .count,
            recorded.visitors_executed
        );
        // A one-shot run is one engine query: its lifecycle is recorded.
        assert_eq!(snap.counter("queries_submitted"), 1);
        assert_eq!(snap.counter("queries_completed"), 1);
        assert_eq!(
            snap.histograms
                .get(asyncgt_obs::HistKind::QueryLatencyNs)
                .count,
            1
        );
        // Every worker started and exited on the timeline.
        let exits = snap
            .timeline
            .iter()
            .filter(|e| e.label == "worker_exit")
            .count();
        assert_eq!(exits, 4);
    }
}
