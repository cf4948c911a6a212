//! Persistent multi-query traversal engine.
//!
//! [`VisitorQueue`](crate::VisitorQueue) spawns a thread scope per run and
//! joins it at termination — the right shape for one traversal, the wrong
//! one for a service answering a stream of them (thread spawn/teardown and
//! cold mailboxes on every request). This module keeps the worker pool
//! alive across traversals: workers are spawned **once** per
//! [`EngineConfig`], park on their mailbox's condvar when idle, and serve
//! queries submitted through [`Engine::submit`].
//!
//! Every visitor is tagged with a compact **query id**. Routing, mailboxes,
//! outbox batching and the private per-worker priority queues are all
//! shared across queries — a worker drains one interleaved stream — while
//! *termination* is tracked per query: each query has its own in-flight
//! counter, and the over-count-only argument (DESIGN.md §14) applies per
//! query id, so query A completing never depends on query B's progress.
//! An engine serves one concrete handler type `H` (queries that run
//! different algorithms differ in the handler's state, not its type): a
//! queued item is the bare visitor plus its 4-byte query id, and a visit
//! is a monomorphized call on the query's `Arc<H>`.
//!
//! A one-shot [`VisitorQueue`](crate::VisitorQueue) run is this engine
//! serving exactly one query. Its items carry the tag `()` instead of a
//! query id, so they are exactly the bare visitor's size, and its query
//! borrows the handler (`&H`) instead of sharing an `Arc<H>`.
//!
//! ```text
//!  submit(handler, seeds)                 workers (spawned once)
//!  ──────────────────────┐            ┌──────────────────────────────┐
//!  admission: wait while │   seeds    │  mailbox → heap (interleaved │
//!  max_concurrent run,   ├───────────▶│  Tagged<V> stream)           │
//!  then take a slot and  │            │  pop → lookup qid → visit    │
//!  activate the query    │            │  push → route → outbox       │
//!  ──────────────────────┘            │  per-qid pending ──▶ 0:      │
//!        ▲                            │  retire → free slot,         │
//!        └──────── slot_cv ◀──────────│  then wake ticket            │
//!                                     └──────────────────────────────┘
//!  QueryTicket::wait ◀── done_cv ─────────────┘
//! ```
//!
//! Failure isolation: a fallible handler returning `Err` aborts **its own
//! query** — remaining visitors for that query id drain out as uncounted
//! drops while sibling queries proceed untouched. A handler *panic* is not
//! isolable (the worker thread is lost), so it poisons the whole engine:
//! every ticket unblocks with [`QueryError::EnginePoisoned`], and
//! [`scoped`] re-raises the panic after all workers exit.
//!
//! # Example
//!
//! ```
//! use asyncgt_obs::NoopRecorder;
//! use asyncgt_vq::engine::{scoped, EngineConfig};
//! use asyncgt_vq::{PushCtx, VisitHandler, Visitor};
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! // A visitor that hops along a chain of vertices, counting visits.
//! #[derive(PartialEq, Eq, PartialOrd, Ord)]
//! struct Hop(u64);
//! impl Visitor for Hop {
//!     fn target(&self) -> u64 {
//!         self.0
//!     }
//! }
//! struct Count {
//!     n: u64,
//!     visits: AtomicU64,
//! }
//! impl VisitHandler<Hop> for Count {
//!     fn visit(&self, v: Hop, ctx: &mut PushCtx<'_, Hop>) {
//!         self.visits.fetch_add(1, Ordering::Relaxed);
//!         if v.0 + 1 < self.n {
//!             ctx.push(Hop(v.0 + 1));
//!         }
//!     }
//! }
//!
//! let cfg = EngineConfig::with_threads(2);
//! let h = Arc::new(Count { n: 100, visits: AtomicU64::new(0) });
//! // Two concurrent traversals on one worker pool, spawned once.
//! let ((a, b), stats) = scoped(&cfg, &NoopRecorder, |engine| {
//!     let t1 = engine.submit(h.clone(), [Hop(0)]).unwrap();
//!     let t2 = engine.submit(h.clone(), [Hop(50)]).unwrap();
//!     (t1.wait().unwrap(), t2.wait().unwrap())
//! });
//! assert_eq!(a.visitors_executed, 100);
//! assert_eq!(b.visitors_executed, 50);
//! assert_eq!(h.visits.load(Ordering::Relaxed), 150);
//! assert_eq!(stats.queries, 2);
//! assert_eq!(stats.num_threads, 2);
//! ```

use crate::config::VqConfig;
use crate::mailbox::Mailbox;
use crate::queue::{route_of, AbortedRun, RunStats};
use crate::visitor::{FallibleVisitHandler, Visitor};
use crate::worker::{engine_worker, Lanes, Sink, Tally, SPIN_ITERS};
use asyncgt_obs::{Counter, Gauge, HistKind, Recorder};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for a persistent [`Engine`] (see [`scoped`]) — and,
/// re-exported as `asyncgt::engine::EngineOpts`, for the traversal engine
/// built on it.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker-pool configuration: thread count and queue policy. Workers
    /// are spawned once from this; every query shares them.
    pub cfg: VqConfig,
    /// Queries allowed to execute simultaneously (default 8; `0` counts
    /// as 1). While this many run, [`Engine::submit`] waits for one to
    /// finish — the backpressure that keeps a hot service from buffering
    /// unboundedly.
    pub max_concurrent: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cfg: VqConfig::default(),
            max_concurrent: 8,
        }
    }
}

impl EngineConfig {
    /// Engine with `num_threads` workers, defaults otherwise.
    pub fn with_threads(num_threads: usize) -> Self {
        EngineConfig {
            cfg: VqConfig::with_threads(num_threads),
            ..Default::default()
        }
    }

    /// Set the concurrent-query limit (see [`EngineConfig::max_concurrent`]).
    pub fn with_max_concurrent(mut self, max_concurrent: usize) -> Self {
        self.max_concurrent = max_concurrent.max(1);
        self
    }
}

/// A visitor tagged with the query it belongs to. Ordering is by the
/// visitor first (priority semantics are unchanged), tag second (a stable
/// tiebreak so batch semi-sort groups same-query visitors).
pub(crate) struct Tagged<V, T> {
    pub(crate) v: V,
    pub(crate) qid: T,
}

impl<V: Visitor, T: QueryTag> PartialEq for Tagged<V, T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl<V: Visitor, T: QueryTag> Eq for Tagged<V, T> {}
impl<V: Visitor, T: QueryTag> PartialOrd for Tagged<V, T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<V: Visitor, T: QueryTag> Ord for Tagged<V, T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.v.cmp(&other.v).then(self.qid.cmp(&other.qid))
    }
}

impl<V: Visitor, T: QueryTag> Visitor for Tagged<V, T> {
    fn target(&self) -> u64 {
        self.v.target()
    }
    fn priority(&self) -> u64 {
        self.v.priority()
    }
}

/// How a queued item names its query: `u32` in an engine serving many
/// queries, `()` in a one-shot run, whose one query needs no id and whose
/// items therefore stay the bare visitor's size.
pub(crate) trait QueryTag: Copy + Ord + Hash + Send + Sync + 'static {
    /// The tag of the engine's `seq`-th query.
    fn nth(seq: u32) -> Self;
    /// The push sink a visit of query `tag` writes into.
    fn sink<V: Visitor>(lanes: Lanes<'_, Tagged<V, Self>>, tag: Self) -> Sink<'_, V>;
}

impl QueryTag for u32 {
    fn nth(seq: u32) -> u32 {
        seq
    }
    #[inline]
    fn sink<V: Visitor>(lanes: Lanes<'_, Tagged<V, u32>>, qid: u32) -> Sink<'_, V> {
        Sink::Tagged(lanes, qid)
    }
}

impl QueryTag for () {
    fn nth(_: u32) {}
    #[inline]
    fn sink<V: Visitor>(lanes: Lanes<'_, Tagged<V, ()>>, _: ()) -> Sink<'_, V> {
        Sink::Bare(lanes)
    }
}

/// How a query holds its handler: an `Arc<H>` for an engine query, a
/// borrowed `&H` for a one-shot run (whose handler need only be `Sync`).
pub(crate) trait Handle<V: Visitor>:
    Deref<Target: FallibleVisitHandler<V>> + Send + Sync
{
}
impl<V: Visitor, D: Deref<Target: FallibleVisitHandler<V>> + Send + Sync> Handle<V> for D {}

/// Completion latch a [`QueryTicket`] waits on.
struct QueryDone {
    /// The query finalized (terminated or aborted) and its stats are final.
    complete: bool,
    /// The engine poisoned before the query could finalize.
    poisoned: bool,
}

/// Per-query shared state: its handler, its termination counter and stat
/// cells (the [`Tally`] workers flush their ledgers into), and the
/// completion latch its ticket waits on.
pub(crate) struct QueryShared<T, D> {
    pub(crate) qid: T,
    pub(crate) handler: D,
    pub(crate) tally: Tally,
    /// Finalizer election: exactly one thread retires the query.
    finished: AtomicBool,
    /// Submit-to-finalize latency, written once at retire.
    latency_ns: AtomicU64,
    done: Mutex<QueryDone>,
    done_cv: Condvar,
    submitted: Instant,
}

impl<T, D> QueryShared<T, D> {
    fn new(qid: T, handler: D, seeded: u64) -> Self {
        QueryShared {
            qid,
            handler,
            tally: Tally::new(seeded),
            finished: AtomicBool::new(false),
            latency_ns: AtomicU64::new(0),
            done: Mutex::new(QueryDone {
                complete: false,
                poisoned: false,
            }),
            done_cv: Condvar::new(),
            submitted: Instant::now(),
        }
    }

    /// Unblock the ticket with an engine-poisoned verdict. Idempotent.
    fn fail_poisoned(&self) {
        let mut done = self.done.lock();
        done.poisoned = true;
        self.done_cv.notify_all();
    }

    /// Block until the query finalizes; see [`QueryTicket::wait`].
    pub(crate) fn wait(&self, num_threads: usize) -> Result<RunStats, QueryError> {
        let mut done = self.done.lock();
        while !done.complete && !done.poisoned {
            self.done_cv.wait(&mut done);
        }
        let complete = done.complete;
        drop(done);
        if !complete {
            return Err(QueryError::EnginePoisoned);
        }
        let stats = RunStats {
            elapsed: Duration::from_nanos(self.latency_ns.load(Ordering::Acquire)),
            ..self.tally.stats(num_threads)
        };
        match self.tally.take_abort() {
            Some(reason) => Err(QueryError::Aborted(AbortedRun { reason, stats })),
            None => Ok(stats),
        }
    }
}

/// Everything the workers and the submitting side share: `T` is the
/// items' [`QueryTag`], `D` how a query holds its handler ([`Handle`]).
pub(crate) struct EngineShared<V, T, D> {
    /// One mailbox per worker, shared by every query (visitors are
    /// [`Tagged`] so ownership of the *stream* stays per-worker while
    /// accounting stays per-query).
    pub(crate) inboxes: Vec<Mailbox<Tagged<V, T>>>,
    /// Live queries by tag. Read per qid-switch on the worker hot path
    /// (amortized by the worker's one-entry query cache).
    queries: RwLock<HashMap<T, Arc<QueryShared<T, D>>>>,
    /// Queries allowed to execute at once (at least 1).
    max_concurrent: usize,
    /// Queries executing (≤ `max_concurrent`). Changed only under
    /// `admission`, so a waiter's check-then-wait cannot miss a wake; read
    /// without it by the idle spin gate (workers skip spinning entirely
    /// when no query is active, the idle-burn fix for long-lived pools).
    active: AtomicUsize,
    admission: Mutex<()>,
    /// Signalled when `active` falls and on poison: blocked submitters
    /// and the drain wait here.
    slot_cv: Condvar,
    /// Graceful teardown: workers exit once idle.
    shutdown: AtomicBool,
    /// A worker panicked: every ticket fails, workers exit immediately.
    poisoned: AtomicBool,
    next_qid: AtomicU32,
    /// Queries finalized over the engine's lifetime.
    finalized: AtomicU64,
}

impl<V: Visitor, T: QueryTag, D: Handle<V>> EngineShared<V, T, D> {
    fn new(num_threads: usize, max_concurrent: usize) -> Self {
        EngineShared {
            inboxes: (0..num_threads).map(|_| Mailbox::new()).collect(),
            queries: RwLock::new(HashMap::new()),
            max_concurrent: max_concurrent.max(1),
            active: AtomicUsize::new(0),
            admission: Mutex::new(()),
            slot_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            next_qid: AtomicU32::new(0),
            finalized: AtomicU64::new(0),
        }
    }

    /// Retire a finalized query (pending hit zero): record latency and
    /// outcome, free its admission slot, then wake its ticket — in that
    /// order, so a caller that sees the ticket done never blocks on its
    /// next submit. Exactly one caller wins the election; losers return.
    pub(crate) fn retire<R: Recorder>(&self, q: &QueryShared<T, D>, recorder: &R) {
        if q.finished.swap(true, Ordering::AcqRel) {
            return;
        }
        let latency = q.submitted.elapsed().as_nanos() as u64;
        q.latency_ns.store(latency, Ordering::Relaxed);
        if R::ENABLED {
            recorder.observe(HistKind::QueryLatencyNs, latency);
            if q.tally.aborted.load(Ordering::Acquire) {
                recorder.counter(Counter::QueriesAborted, 1);
            } else {
                recorder.counter(Counter::QueriesCompleted, 1);
            }
        }
        self.finalized.fetch_add(1, Ordering::Relaxed);
        self.queries.write().remove(&q.qid);
        {
            let _adm = self.admission.lock();
            self.active.fetch_sub(1, Ordering::Relaxed);
            self.slot_cv.notify_all();
        }
        let mut done = q.done.lock();
        done.complete = true;
        q.done_cv.notify_all();
    }

    /// Resolve a tag to its live query (`None` only for an unknown tag).
    pub(crate) fn lookup(&self, tag: T) -> Option<Arc<QueryShared<T, D>>> {
        self.queries.read().get(&tag).cloned()
    }

    /// A worker panicked: every worker drops its work and exits.
    #[inline]
    pub(crate) fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Whether an idle worker should exit instead of waiting for mail.
    pub(crate) fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) || self.poisoned.load(Ordering::Acquire)
    }

    /// Idle spin iterations before parking: spin only while queries are in
    /// flight. A fully idle engine skips straight to the park: between
    /// queries there is nothing nanoseconds away to spin for, and N
    /// workers spinning between every request would burn N cores at idle.
    pub(crate) fn spin_budget(&self) -> u32 {
        if self.active.load(Ordering::Relaxed) == 0 {
            0
        } else {
            SPIN_ITERS
        }
    }

    /// Wake every parked worker (teardown, poison).
    fn wake_all(&self) {
        for inbox in &self.inboxes {
            inbox.wake();
        }
    }

    /// A worker (or the caller's closure) panicked: fail every live
    /// query's ticket and every blocked submit, and wake everyone so the
    /// scope can come down.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.shutdown.store(true, Ordering::Release);
        for q in self.queries.read().values() {
            q.fail_poisoned();
        }
        {
            // Under the lock: a waiter has either seen the flag or is
            // parked on the condvar by now.
            let _adm = self.admission.lock();
            self.slot_cv.notify_all();
        }
        self.wake_all();
    }

    /// Submit a query (see [`Engine::submit`]): route its seeds, wait for a
    /// free slot, then make the query live — the one place a query starts.
    /// A seedless query retires at once: no worker ever will.
    pub(crate) fn submit<I, R>(
        &self,
        recorder: &R,
        handler: D,
        seeds: I,
    ) -> Result<Arc<QueryShared<T, D>>, SubmitError>
    where
        I: IntoIterator<Item = V>,
        R: Recorder,
    {
        let qid = T::nth(self.next_qid.fetch_add(1, Ordering::Relaxed));
        let num_queues = self.inboxes.len();
        let mut groups: Vec<Vec<Tagged<V, T>>> = (0..num_queues).map(|_| Vec::new()).collect();
        let mut seeded: u64 = 0;
        for v in seeds {
            groups[route_of(v.target(), num_queues)].push(Tagged { v, qid });
            seeded += 1;
        }
        let query = Arc::new(QueryShared::new(qid, handler, seeded));

        {
            let mut adm = self.admission.lock();
            while self.active.load(Ordering::Relaxed) >= self.max_concurrent && !self.poisoned() {
                self.slot_cv.wait(&mut adm);
            }
            if self.poisoned() {
                if R::ENABLED {
                    recorder.counter(Counter::SubmitRejections, 1);
                }
                return Err(SubmitError::Poisoned);
            }
            let active = self.active.fetch_add(1, Ordering::Relaxed) + 1;
            if R::ENABLED {
                recorder.gauge_max(Gauge::ActiveQueriesHwm, active as u64);
            }
        }
        // Table insert first (workers must be able to look the qid up the
        // moment a seed lands), counter before delivery (a delivered seed
        // may execute and complete before this function returns).
        self.queries.write().insert(qid, Arc::clone(&query));
        query.tally.pending.store(seeded, Ordering::Release);
        // Each group is freed once delivered, so the seeds are held twice
        // over (group and mailbox) for one destination at a time.
        for (dest, mut group) in groups.into_iter().enumerate() {
            self.inboxes[dest].deliver(&mut group);
        }
        // Poison may have run between taking the slot and the table insert,
        // missing this query in its sweep. Either its flag store precedes
        // this check (we fail the ticket here, idempotent) or its table
        // sweep sees our insert — no ticket is left hanging.
        if self.poisoned() {
            query.fail_poisoned();
        }
        if seeded == 0 {
            self.retire(&query, recorder);
        }
        if R::ENABLED {
            recorder.counter(Counter::QueriesSubmitted, 1);
            // Seed pushes are driver-attributed (overflow shard).
            recorder.counter(Counter::VisitorsPushed, seeded);
        }
        Ok(query)
    }
}

/// Why [`Engine::submit`] refused a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// A worker panicked; the engine is dead.
    Poisoned,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Poisoned => write!(f, "engine poisoned by a panicked worker"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a submitted query failed (from [`QueryTicket::wait`]).
#[derive(Debug)]
pub enum QueryError {
    /// The query's handler returned `Err`: the first reason plus the
    /// partial stats accumulated before its visitors drained out
    /// (`visitors_dropped` counts what drained unexecuted). Sibling
    /// queries are unaffected.
    Aborted(AbortedRun),
    /// A worker panicked, taking the whole engine down; this query cannot
    /// report a result. [`scoped`] re-raises the panic after teardown.
    EnginePoisoned,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Aborted(a) => std::fmt::Display::fmt(a, f),
            QueryError::EnginePoisoned => write!(f, "engine poisoned by a panicked worker"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Aborted(a) => std::error::Error::source(a),
            QueryError::EnginePoisoned => None,
        }
    }
}

/// Aggregate statistics for one engine lifetime (returned by [`scoped`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Worker threads the engine ran (spawned exactly once).
    pub num_threads: usize,
    /// Times any worker parked while idle.
    pub parks: u64,
    /// Non-empty inbox drains across all workers.
    pub inbox_batches: u64,
    /// Queries finalized over the engine's lifetime.
    pub queries: u64,
    /// Wall-clock lifetime of the engine (spawn to last join).
    pub elapsed: Duration,
}

/// Handle to a live engine inside a [`scoped`] call: submit queries, get
/// [`QueryTicket`]s back. Every query runs the same handler type `H`.
pub struct Engine<'s, V: Visitor, H, R: Recorder> {
    shared: &'s EngineShared<V, u32, Arc<H>>,
    recorder: &'s R,
}

impl<'s, V: Visitor, H: FallibleVisitHandler<V> + Send + Sync, R: Recorder> Engine<'s, V, H, R> {
    /// Number of worker threads (== number of visitor queues).
    pub fn num_workers(&self) -> usize {
        self.shared.inboxes.len()
    }

    /// Queries currently executing (an instantaneous snapshot).
    pub fn active_queries(&self) -> u64 {
        self.shared.active.load(Ordering::Relaxed) as u64
    }

    /// Submit a traversal: `seeds` are routed to the worker pool, executed
    /// under `handler`, and the returned [`QueryTicket`] resolves when the
    /// query's own in-flight counter hits zero.
    ///
    /// Admission: if fewer than [`max_concurrent`](EngineConfig::max_concurrent)
    /// queries are active the query starts immediately; otherwise the call
    /// blocks until one finishes. A slot frees before its query's ticket
    /// wakes, so a caller that keeps at most `max_concurrent` tickets
    /// unfinished never blocks here. Fails only with
    /// [`SubmitError::Poisoned`], also for a call blocked when a handler
    /// panics.
    pub fn submit<I>(&self, handler: Arc<H>, seeds: I) -> Result<QueryTicket<H>, SubmitError>
    where
        I: IntoIterator<Item = V>,
    {
        let query = self.shared.submit(self.recorder, handler, seeds)?;
        Ok(QueryTicket {
            query,
            num_threads: self.num_workers(),
        })
    }
}

/// A submitted query's completion handle. Dropping it without waiting is
/// fine — the query still runs to completion (or abort) and [`scoped`]'s
/// drain covers it.
pub struct QueryTicket<H> {
    query: Arc<QueryShared<u32, Arc<H>>>,
    num_threads: usize,
}

impl<H> QueryTicket<H> {
    /// Block until the query finalizes; returns its stats, its abort, or
    /// the engine's poison verdict. `elapsed` is the submit-to-finalize
    /// latency from the moment [`Engine::submit`] was called, any wait for
    /// a free slot included — what a caller experiences. `parks` and `inbox_batches` are engine-wide
    /// quantities with no per-query attribution, so they read 0; the
    /// engine-lifetime totals are in [`EngineStats`].
    pub fn wait(self) -> Result<RunStats, QueryError> {
        self.query.wait(self.num_threads)
    }

    /// Whether the query has already finalized (non-blocking).
    pub fn is_done(&self) -> bool {
        let done = self.query.done.lock();
        done.complete || done.poisoned
    }
}

/// Run a persistent engine for the duration of `f`: workers are spawned
/// once, `f` submits queries through the [`Engine`] handle, and when `f`
/// returns the engine drains (every submitted query runs to completion)
/// before shutting the workers down. Returns `f`'s value plus the engine's
/// lifetime [`EngineStats`].
///
/// # Panics
/// Re-raises any worker (handler) panic after all workers have exited. If
/// `f` itself panics, the engine is poisoned so workers exit before the
/// panic propagates.
pub fn scoped<V, H, R, T>(
    cfg: &EngineConfig,
    recorder: &R,
    f: impl FnOnce(&Engine<'_, V, H, R>) -> T,
) -> (T, EngineStats)
where
    V: Visitor,
    H: FallibleVisitHandler<V> + Send + Sync,
    R: Recorder,
{
    serve(cfg, recorder, |shared| f(&Engine { shared, recorder }))
}

/// The engine lifecycle behind [`scoped`] and every one-shot run: spawn
/// one worker per queue (threads named `vq-worker-{id}`, so OS-level
/// accounting such as `/proc/self/task/*/comm` can attribute their CPU),
/// run `driver` on the calling thread, drain every accepted query, then
/// shut the workers down and join them.
///
/// # Panics
/// Re-raises a worker (handler) panic after every worker has exited.
pub(crate) fn serve<V, T, D, R, Out>(
    cfg: &EngineConfig,
    recorder: &R,
    driver: impl FnOnce(&EngineShared<V, T, D>) -> Out,
) -> (Out, EngineStats)
where
    V: Visitor,
    T: QueryTag,
    D: Handle<V>,
    R: Recorder,
{
    let num_threads = cfg.cfg.num_threads.max(1);
    let start = Instant::now();
    let shared: EngineShared<V, T, D> = EngineShared::new(num_threads, cfg.max_concurrent);
    let shared = &shared;
    let mut stats = EngineStats {
        num_threads,
        ..EngineStats::default()
    };
    let out = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..num_threads)
            .map(|id| {
                std::thread::Builder::new()
                    .name(format!("vq-worker-{id}"))
                    .spawn_scoped(scope, move || engine_worker(shared, id, &cfg.cfg, recorder))
                    .expect("spawn vq worker")
            })
            .collect();
        // If `driver` panics, poison so workers exit and the scope's
        // implicit join completes instead of deadlocking under the unwind.
        let guard = PoisonGuard(shared);
        let out = driver(shared);
        // Graceful drain: wait for every accepted query. The closure has
        // returned, so nothing can submit any more.
        {
            let mut adm = shared.admission.lock();
            while shared.active.load(Ordering::Relaxed) > 0 && !shared.poisoned() {
                shared.slot_cv.wait(&mut adm);
            }
        }
        shared.shutdown.store(true, Ordering::Release);
        shared.wake_all();
        drop(guard);
        for h in handles {
            // A panicked worker has already poisoned the pool, so the
            // remaining workers exit; join then re-raises.
            let w = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            stats.parks += w.parks;
            stats.inbox_batches += w.inbox_batches;
        }
        out
    });
    stats.queries = shared.finalized.load(Ordering::Relaxed);
    stats.elapsed = start.elapsed();
    (out, stats)
}

/// Upper bound on one idle park. Long, because wakes come from deliveries,
/// termination and teardown — every one delivered under the mail lock
/// (see the mailbox module docs) — so the park is a backstop, and
/// reparking rarely keeps an idle engine's CPU near zero.
pub(crate) const PARK: Duration = Duration::from_millis(250);

/// Poison the engine if its holder — a worker or the driver — unwinds.
pub(crate) struct PoisonGuard<'a, V: Visitor, T: QueryTag, D: Handle<V>>(
    pub(crate) &'a EngineShared<V, T, D>,
);

impl<V: Visitor, T: QueryTag, D: Handle<V>> Drop for PoisonGuard<'_, V, T, D> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AbortReason, PushCtx};
    use asyncgt_obs::NoopRecorder;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AO};

    /// Visitor that walks a chain start..end, one hop per visit.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Chain(u64);
    impl Visitor for Chain {
        fn target(&self) -> u64 {
            self.0
        }
    }

    struct ChainHandler {
        end: u64,
        visits: AtomicU64,
    }
    impl crate::VisitHandler<Chain> for ChainHandler {
        fn visit(&self, v: Chain, ctx: &mut PushCtx<'_, Chain>) {
            self.visits.fetch_add(1, AO::Relaxed);
            if v.0 + 1 < self.end {
                ctx.push(Chain(v.0 + 1));
            }
        }
    }

    struct FailingChain {
        end: u64,
        fail_at: u64,
        visits: AtomicU64,
    }
    impl FallibleVisitHandler<Chain> for FailingChain {
        fn try_visit(&self, v: Chain, ctx: &mut PushCtx<'_, Chain>) -> Result<bool, AbortReason> {
            self.visits.fetch_add(1, AO::Relaxed);
            if v.0 == self.fail_at {
                return Err(format!("injected failure at vertex {}", v.0).into());
            }
            if v.0 + 1 < self.end {
                ctx.push(Chain(v.0 + 1));
            }
            Ok(true)
        }
    }

    #[test]
    fn concurrent_queries_complete_independently() {
        let cfg = EngineConfig {
            max_concurrent: 8,
            ..EngineConfig::with_threads(4)
        };
        // Chains with different lengths, one handler each; every query must
        // report exactly its own chain's counts even though all chains
        // overlap in vertex space (same vertices, different queries).
        let lens: Vec<u64> = (1..=8).map(|i| i * 700).collect();
        let handlers: Vec<Arc<ChainHandler>> = lens
            .iter()
            .map(|&len| {
                Arc::new(ChainHandler {
                    end: len,
                    visits: AtomicU64::new(0),
                })
            })
            .collect();
        let (results, stats) = scoped(&cfg, &NoopRecorder, |engine| {
            let tickets: Vec<_> = handlers
                .iter()
                .map(|h| engine.submit(Arc::clone(h), [Chain(0)]).unwrap())
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().unwrap())
                .collect::<Vec<_>>()
        });
        for ((qs, &len), h) in results.iter().zip(&lens).zip(&handlers) {
            assert_eq!(qs.visitors_executed, len, "len={len}");
            assert_eq!(h.visits.load(AO::Relaxed), len);
            assert_eq!(qs.visitors_pushed, qs.visitors_executed);
            assert_eq!(qs.visitors_dropped, 0);
        }
        assert_eq!(stats.queries, lens.len() as u64);
        assert_eq!(stats.num_threads, 4);
    }

    #[test]
    fn recorder_counters_equal_summed_query_stats() {
        use asyncgt_obs::ShardedRecorder;
        let cfg = EngineConfig {
            max_concurrent: 8,
            ..EngineConfig::with_threads(4)
        };
        let rec = ShardedRecorder::new(4);
        let lens = [300u64, 1_000, 2_500, 4_000];
        let handlers: Vec<Arc<ChainHandler>> = lens
            .iter()
            .map(|&end| {
                Arc::new(ChainHandler {
                    end,
                    visits: AtomicU64::new(0),
                })
            })
            .collect();
        let (results, stats) = scoped(&cfg, &rec, |engine| {
            let tickets: Vec<_> = handlers
                .iter()
                .map(|h| engine.submit(Arc::clone(h), [Chain(0)]).unwrap())
                .collect();
            let results: Vec<RunStats> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
            // A finalized query's counts are visible to a live snapshot.
            let executed: u64 = results.iter().map(|q| q.visitors_executed).sum();
            assert_eq!(rec.snapshot().counter("visitors_executed"), executed);
            results
        });
        let snap = rec.snapshot();
        let sum = |f: fn(&RunStats) -> u64| results.iter().map(f).sum::<u64>();
        assert_eq!(
            snap.counter("visitors_executed"),
            sum(|q| q.visitors_executed)
        );
        assert_eq!(snap.counter("visitors_pushed"), sum(|q| q.visitors_pushed));
        assert_eq!(snap.counter("local_pushes"), sum(|q| q.local_pushes));
        assert_eq!(
            snap.counter("local_pushes") + snap.counter("remote_pushes"),
            sum(|q| q.visitors_pushed) - lens.len() as u64,
            "every push except the driver-side seeds is local or remote"
        );
        assert_eq!(snap.counter("parks"), stats.parks);
        assert_eq!(snap.counter("inbox_batches"), stats.inbox_batches);
        assert_eq!(snap.counter("queries_completed"), lens.len() as u64);
    }

    #[test]
    fn aborted_query_leaves_siblings_untouched() {
        let cfg = EngineConfig::with_threads(4);
        // Every query of one engine runs the same handler type; the healthy
        // sibling is a `FailingChain` that never reaches its failure point.
        let good = Arc::new(FailingChain {
            end: 20_000,
            fail_at: u64::MAX,
            visits: AtomicU64::new(0),
        });
        let bad = Arc::new(FailingChain {
            end: 100_000,
            fail_at: 100,
            visits: AtomicU64::new(0),
        });
        let ((good_res, bad_res), _stats) = scoped(&cfg, &NoopRecorder, |engine| {
            let tg = engine.submit(good.clone(), [Chain(0)]).unwrap();
            let tb = engine.submit(bad.clone(), [Chain(0)]).unwrap();
            (tg.wait(), tb.wait())
        });
        // The failing query aborted with its reason and exact progress:
        // the chain is sequential, so visits 0..=100 ran.
        match bad_res {
            Err(QueryError::Aborted(AbortedRun { reason, stats })) => {
                assert!(reason.to_string().contains("vertex 100"), "{reason}");
                assert_eq!(stats.visitors_executed, 101);
                assert!(stats.visitors_pushed >= stats.visitors_executed);
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert_eq!(bad.visits.load(AO::Relaxed), 101);
        // The sibling ran to completion, byte-identical to a solo run.
        let good_stats = good_res.expect("sibling must be unaffected");
        assert_eq!(good_stats.visitors_executed, 20_000);
        assert_eq!(good.visits.load(AO::Relaxed), 20_000);
        assert_eq!(good_stats.visitors_dropped, 0);
    }

    /// Handler whose every visit spins until `gate` opens, then panics if
    /// `explode` is set.
    struct Gated {
        gate: AtomicBool,
        explode: bool,
        visits: AtomicU64,
    }
    impl crate::VisitHandler<Chain> for Gated {
        fn visit(&self, v: Chain, _ctx: &mut PushCtx<'_, Chain>) {
            while !self.gate.load(AO::Acquire) {
                std::thread::yield_now();
            }
            assert!(!self.explode, "boom at {}", v.0);
            self.visits.fetch_add(1, AO::Relaxed);
        }
    }

    /// How long a blocked submit is given to (wrongly) return. Only the
    /// check's power depends on it: a correct engine passes at any value.
    const BLOCKED: Duration = Duration::from_millis(50);

    #[test]
    fn submit_waits_for_a_free_slot() {
        // One execution slot held by a gated query: a second submit must
        // block until the gate opens, then both run exactly, and the freed
        // slot serves later submits.
        let cfg = EngineConfig {
            max_concurrent: 1,
            ..EngineConfig::with_threads(2)
        };
        let h = Arc::new(Gated {
            gate: AtomicBool::new(false),
            explode: false,
            visits: AtomicU64::new(0),
        });
        let returned = AtomicBool::new(false);
        let (outcome, stats) = scoped(&cfg, &NoopRecorder, |engine| {
            let t1 = engine.submit(h.clone(), [Chain(1)]).unwrap();
            assert_eq!(engine.active_queries(), 1);
            let started = std::sync::Barrier::new(2);
            let (early, t2) = std::thread::scope(|s| {
                let second = s.spawn(|| {
                    started.wait();
                    let t = engine.submit(h.clone(), [Chain(2)]).unwrap();
                    returned.store(true, AO::Release);
                    t
                });
                started.wait();
                std::thread::sleep(BLOCKED);
                let early = returned.load(AO::Acquire);
                h.gate.store(true, AO::Release);
                (early, second.join().unwrap())
            });
            let s1 = t1.wait().unwrap();
            let s2 = t2.wait().unwrap();
            let t3 = engine.submit(h.clone(), [Chain(3)]).unwrap();
            (early, s1, s2, t3.wait().unwrap())
        });
        let (early, s1, s2, s3) = outcome;
        assert!(!early, "submit returned while the only slot was held");
        assert_eq!(s1.visitors_executed, 1);
        assert_eq!(s2.visitors_executed, 1);
        assert_eq!(s3.visitors_executed, 1);
        assert_eq!(h.visits.load(AO::Relaxed), 3);
        assert_eq!(stats.queries, 3);
    }

    #[test]
    fn blocked_submit_fails_when_the_engine_poisons() {
        // The running query's handler panics while a second submit waits
        // for its slot: the waiter must get `Poisoned`, not hang, and the
        // panic must still reach the caller of `scoped`.
        let cfg = EngineConfig {
            max_concurrent: 1,
            ..EngineConfig::with_threads(2)
        };
        let h = Arc::new(Gated {
            gate: AtomicBool::new(false),
            explode: true,
            visits: AtomicU64::new(0),
        });
        let blocked = Mutex::new(None);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scoped(&cfg, &NoopRecorder, |engine| {
                let t1 = engine.submit(h.clone(), [Chain(1)]).unwrap();
                std::thread::scope(|s| {
                    let second = s.spawn(|| engine.submit(h.clone(), [Chain(2)]).err());
                    std::thread::sleep(BLOCKED);
                    h.gate.store(true, AO::Release);
                    *blocked.lock() = Some(second.join().unwrap());
                });
                matches!(t1.wait(), Err(QueryError::EnginePoisoned))
            })
        }));
        assert!(result.is_err(), "handler panic must propagate");
        assert_eq!(blocked.into_inner(), Some(Some(SubmitError::Poisoned)));
        assert_eq!(h.visits.load(AO::Relaxed), 0);
    }

    #[test]
    fn dropped_tickets_still_drain_before_shutdown() {
        let cfg = EngineConfig::with_threads(2);
        let h = Arc::new(ChainHandler {
            end: 5_000,
            visits: AtomicU64::new(0),
        });
        let (_, stats) = scoped(&cfg, &NoopRecorder, |engine| {
            // Submit and immediately drop the ticket: the drain must still
            // run the query to completion before workers shut down.
            let _ = engine.submit(h.clone(), [Chain(0)]).unwrap();
        });
        assert_eq!(h.visits.load(AO::Relaxed), 5_000);
        assert_eq!(stats.queries, 1);
    }

    #[test]
    fn empty_seed_query_completes_with_zero_stats() {
        let cfg = EngineConfig::with_threads(2);
        let h = Arc::new(ChainHandler {
            end: 10,
            visits: AtomicU64::new(0),
        });
        let (qs, stats) = scoped(&cfg, &NoopRecorder, |engine| {
            engine
                .submit(h.clone(), std::iter::empty())
                .unwrap()
                .wait()
                .unwrap()
        });
        assert_eq!(qs.visitors_executed, 0);
        assert_eq!(qs.visitors_pushed, 0);
        assert_eq!(h.visits.load(AO::Relaxed), 0);
        assert_eq!(stats.queries, 1);
    }

    #[test]
    fn worker_panic_poisons_engine_and_propagates() {
        struct Bomb;
        impl crate::VisitHandler<Chain> for Bomb {
            fn visit(&self, v: Chain, _ctx: &mut PushCtx<'_, Chain>) {
                panic!("boom at {}", v.0);
            }
        }
        let cfg = EngineConfig::with_threads(2);
        let result = std::panic::catch_unwind(|| {
            scoped(
                &cfg,
                &NoopRecorder,
                |engine: &Engine<'_, Chain, Bomb, _>| {
                    let t = engine.submit(Arc::new(Bomb), [Chain(0)]).unwrap();
                    // The ticket resolves as poisoned (not a hang) even though
                    // the panic is re-raised at scope exit.
                    matches!(t.wait(), Err(QueryError::EnginePoisoned))
                },
            )
        });
        assert!(result.is_err(), "handler panic must propagate");
    }

    #[test]
    fn sixty_four_concurrent_queries_on_one_pool() {
        let cfg = EngineConfig {
            max_concurrent: 64,
            ..EngineConfig::with_threads(8)
        };
        let n_queries = 64u64;
        // Each query walks 100 hops from a distinct start; totals must be
        // exact per query and in aggregate.
        struct Hops {
            visits: AtomicU64,
        }
        impl crate::VisitHandler<HopV> for Hops {
            fn visit(&self, v: HopV, ctx: &mut PushCtx<'_, HopV>) {
                self.visits.fetch_add(1, AO::Relaxed);
                if v.left > 0 {
                    ctx.push(HopV {
                        vertex: v.vertex + 1,
                        left: v.left - 1,
                    });
                }
            }
        }
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        struct HopV {
            vertex: u64,
            left: u64,
        }
        impl Visitor for HopV {
            fn target(&self) -> u64 {
                self.vertex
            }
        }
        let hops = Arc::new(Hops {
            visits: AtomicU64::new(0),
        });
        let (per_query, stats) = scoped(&cfg, &NoopRecorder, |engine| {
            let tickets: Vec<_> = (0..n_queries)
                .map(|q| {
                    engine
                        .submit(
                            hops.clone(),
                            [HopV {
                                vertex: q * 1_000,
                                left: 99,
                            }],
                        )
                        .unwrap()
                })
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().unwrap())
                .collect::<Vec<_>>()
        });
        for qs in &per_query {
            assert_eq!(qs.visitors_executed, 100);
            assert_eq!(qs.visitors_pushed, 100);
        }
        assert_eq!(hops.visits.load(AO::Relaxed), n_queries * 100);
        assert_eq!(stats.queries, n_queries);
        assert_eq!(stats.num_threads, 8, "one pool serves all queries");
    }

    #[test]
    fn teardown_wakes_parked_workers_promptly() {
        // Workers head for their idle park the moment the last query
        // finishes, racing the shutdown wake. A lost wake leaves a worker
        // asleep for the whole park bound, and the join waits on it.
        let cfg = EngineConfig::with_threads(4);
        let h = Arc::new(ChainHandler {
            end: 64,
            visits: AtomicU64::new(0),
        });
        for round in 0..50 {
            let mut closed = Instant::now();
            scoped(&cfg, &NoopRecorder, |engine| {
                engine
                    .submit(h.clone(), [Chain(0)])
                    .unwrap()
                    .wait()
                    .unwrap();
                closed = Instant::now();
            });
            let teardown = closed.elapsed();
            assert!(
                teardown < PARK / 2,
                "round {round}: teardown took {teardown:?}, a parked worker missed its wake"
            );
        }
    }

    #[test]
    fn one_shot_matches_visitor_queue_semantics() {
        // The same chain as one `u32`-tagged engine query and as a
        // one-shot run (untagged): identical work and accounting.
        let cfg = VqConfig::with_threads(4);
        let h = Arc::new(ChainHandler {
            end: 1_000,
            visits: AtomicU64::new(0),
        });
        let (qs, _) = scoped(
            &EngineConfig {
                cfg: cfg.clone(),
                ..Default::default()
            },
            &NoopRecorder,
            |engine| {
                engine
                    .submit(h.clone(), [Chain(0)])
                    .unwrap()
                    .wait()
                    .unwrap()
            },
        );
        let s = crate::VisitorQueue::run(&cfg, &*h, [Chain(0)]);
        assert_eq!(h.visits.load(AO::Relaxed), 2_000);
        assert_eq!(s.visitors_executed, qs.visitors_executed);
        assert_eq!(s.visitors_pushed, qs.visitors_pushed);
        assert_eq!(s.local_pushes, qs.local_pushes);
        assert_eq!(s.visitors_executed, 1_000);
        assert_eq!(s.num_threads, 4);
    }
}
