//! The one-shot visitor queue: one traversal on a worker pool spawned for
//! it and joined at termination.
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
//! Termination uses a single global counter of *incomplete* visitors:
//! incremented no later than a visitor becomes drainable by another
//! worker, decremented only after its `visit` returns. Because an
//! executing visitor still holds its own count while emitting children,
//! the counter can only reach zero when no visitor is queued anywhere
//! **and** none is in flight — exactly the paper's "the traversal is
//! complete when the visitor queue is empty, and all visitors have
//! completed". Two batching refinements keep the counter off the hot path
//! without breaking that invariant (the counter may over-count, never
//! under-count): pushes to a worker's own queue defer their increment to
//! the end of the visit, and completions accumulate into a per-worker debt
//! settled at the latest when the worker runs out of local work.
//!
//! The worker loop itself is `crate::worker::engine_worker`, the one loop
//! the persistent [`Engine`](crate::engine::Engine) runs too. What this
//! module adds is its **`Single`** routing policy: the queues carry the
//! bare visitor `V` (no query tag), the handler is called as a
//! monomorphized `&H` (no `dyn`), and there is no query table, admission
//! or ticket — one `Tally` holds the pending counter, and workers exit
//! once it reaches zero or a handler panics.

use crate::config::VqConfig;
use crate::mailbox::Mailbox;
use crate::visitor::{AbortReason, FallibleVisitHandler, VisitHandler, Visitor};
use crate::worker::{serve, Lanes, Route, Sink, Tally, SPIN_ITERS};
use asyncgt_obs::{Counter, NoopRecorder, Recorder};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Aggregate statistics from one traversal run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Total visitors executed (≥ vertices visited; label-correcting
    /// traversals may visit a vertex multiple times, paper §III-B).
    pub visitors_executed: u64,
    /// Total visitors pushed. Equals `visitors_executed` when the run
    /// terminates normally; aborted (or poisoned) runs return partial
    /// stats where `visitors_pushed >= visitors_executed`, because
    /// visitors still queued when the run came down were dropped
    /// unexecuted.
    pub visitors_pushed: u64,
    /// Pushes that stayed on the pushing worker's own queue (no lock).
    pub local_pushes: u64,
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
        let num_threads = cfg.num_threads.max(1);
        // Seed: group initial visitors by destination queue, then deliver
        // each group in one mailbox operation. The workers have not
        // started, so nothing contends and no owner needs waking.
        let mut groups: Vec<Vec<V>> = (0..num_threads).map(|_| Vec::new()).collect();
        let mut seeded: u64 = 0;
        for v in init {
            groups[route_of(v.target(), num_threads)].push(v);
            seeded += 1;
        }
        if seeded == 0 {
            // Nothing to traverse: no workers are spawned.
            return Ok(RunStats {
                num_threads,
                ..Default::default()
            });
        }
        let run = Single {
            inboxes: (0..num_threads).map(|_| Mailbox::new()).collect(),
            tally: Tally::new(seeded),
            handler,
            poisoned: AtomicBool::new(false),
        };
        for (q, mut group) in groups.into_iter().enumerate() {
            run.inboxes[q].deliver(&mut group);
        }
        run.tally.pending.store(seeded, Ordering::Release);
        if R::ENABLED {
            // Seed pushes come from the driver thread (overflow shard);
            // worker-attributed pushes are recorded in the worker loop.
            recorder.counter(Counter::VisitorsPushed, seeded);
        }

        let start = Instant::now();
        let ((), totals) = serve(&run, cfg, recorder, || ());
        let t = &run.tally;
        let stats = RunStats {
            visitors_executed: t.executed.load(Ordering::Acquire),
            visitors_pushed: t.pushed.load(Ordering::Acquire),
            local_pushes: t.local_pushes.load(Ordering::Acquire),
            parks: totals.parks,
            inbox_batches: totals.inbox_batches,
            elapsed: start.elapsed(),
            num_threads,
        };
        match t.take_abort() {
            Some(reason) => Err(AbortedRun { reason, stats }),
            None => Ok(stats),
        }
    }
}

/// Upper bound on one idle park in a one-shot run. Short until the
/// one-shot park question in DESIGN.md §14 is settled.
const ONE_SHOT_PARK: Duration = Duration::from_millis(1);

/// The `Single` routing policy (see the module docs): one traversal, bare
/// visitors, a monomorphized handler. `H` needs only `Sync` — it is
/// borrowed for the run, never sent.
struct Single<'h, V: Visitor, H: ?Sized> {
    inboxes: Vec<Mailbox<V>>,
    tally: Tally,
    handler: &'h H,
    /// A handler panicked: workers drop their work and exit.
    poisoned: AtomicBool,
}

impl<V: Visitor, H: FallibleVisitHandler<V> + ?Sized> Route<V> for Single<'_, V, H> {
    type Item = V;
    type Tag = ();
    type Query = ();
    type Handler = H;
    const PARK: Duration = ONE_SHOT_PARK;

    fn inboxes(&self) -> &[Mailbox<V>] {
        &self.inboxes
    }

    #[inline]
    fn split(v: V) -> (V, ()) {
        (v, ())
    }

    #[inline]
    fn sink(lanes: Lanes<'_, V>, _: ()) -> Sink<'_, V> {
        Sink::Single(lanes)
    }

    #[inline]
    fn lookup(&self, _: ()) -> Option<()> {
        Some(())
    }

    #[inline]
    fn tag_of(_: &()) {}

    #[inline]
    fn tally<'a>(&'a self, _: &'a ()) -> &'a Tally {
        &self.tally
    }

    #[inline]
    fn handler<'a>(&'a self, _: &'a ()) -> &'a H {
        self.handler
    }

    /// The run terminated: wake every parked worker so it sees
    /// `stopping()` and exits.
    fn finish<R: Recorder>(&self, _: &(), _: &R) {
        self.wake_all();
    }

    #[inline]
    fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    fn stopping(&self) -> bool {
        self.tally.pending.load(Ordering::Acquire) == 0 || self.poisoned()
    }

    fn spin_budget(&self) -> u32 {
        SPIN_ITERS
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PushCtx;
    use std::sync::atomic::{AtomicU64, Ordering as AO};

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

    /// Fallible chain handler that fails at a chosen vertex.
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
        ) -> Result<(), crate::AbortReason> {
            self.visits.fetch_add(1, AO::Relaxed);
            if v.0 == self.fail_at {
                return Err(format!("injected failure at vertex {}", v.0).into());
            }
            if v.0 + 1 < self.n {
                ctx.push(Chain(v.0 + 1));
            }
            Ok(())
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
            fn try_visit(&self, v: P, _ctx: &mut PushCtx<'_, P>) -> Result<(), crate::AbortReason> {
                self.order.lock().push(v.0);
                Ok(())
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
            batch_drain: 4,
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
                    batch_drain: bd,
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

    /// Bytes one queued item occupies under routing policy `P`.
    fn queued_item_size<V: Visitor, P: Route<V>>() -> usize {
        std::mem::size_of::<P::Item>()
    }

    #[test]
    fn one_shot_queues_store_bare_visitors() {
        // The layout of core's SSSP/BFS visitor: (dist, vertex, parent).
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
        type OneShot<V> = Single<'static, V, dyn FallibleVisitHandler<V>>;
        // A query tag would widen every queued and mailed item (to 24
        // bytes here); one-shot runs must carry the bare visitor.
        assert_eq!(queued_item_size::<Path, OneShot<Path>>(), 16);
        assert_eq!(
            queued_item_size::<Chain, OneShot<Chain>>(),
            std::mem::size_of::<Chain>()
        );
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
        // Every worker started and exited on the timeline.
        let exits = snap
            .timeline
            .iter()
            .filter(|e| e.label == "worker_exit")
            .count();
        assert_eq!(exits, 4);
    }
}
