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
//!
//! ```text
//!  submit(handler, seeds)                 workers (spawned once)
//!  ──────────────────────┐            ┌──────────────────────────────┐
//!  admission control     │   seeds    │  mailbox → heap (interleaved │
//!  (max_concurrent,      ├───────────▶│  Tagged<V> stream)           │
//!   bounded queue,       │            │  pop → lookup qid → visit    │
//!   timeout)             │            │  push → route → outbox       │
//!  ──────────────────────┘            │  per-qid pending ──▶ 0:      │
//!        │                            │  finalize → ticket wakes     │
//!        ▼                            └──────────────────────────────┘
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
//! use asyncgt_vq::{PushCtx, VisitHandler, Visitor, VqConfig};
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
//! let cfg = EngineConfig::with_vq(VqConfig::with_threads(2));
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
use crate::queue::route_of;
use crate::visitor::{AbortReason, FallibleVisitHandler, Visitor};
use crate::worker::{serve, Lanes, Route, Sink, Tally, SPIN_ITERS};
use asyncgt_obs::{Counter, Gauge, HistKind, Recorder};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for a persistent [`Engine`] (see [`scoped`]).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker-pool configuration: thread count and queue policy. Workers
    /// are spawned once from this; every query shares them.
    pub vq: VqConfig,
    /// Queries allowed to execute simultaneously (default 8). Submits
    /// beyond this wait in the bounded queue.
    pub max_concurrent: usize,
    /// Capacity of the bounded submit queue (default 64). When both the
    /// active set and this queue are full, [`Engine::submit`] blocks — the
    /// backpressure that keeps a hot service from buffering unboundedly.
    pub queue_depth: usize,
    /// How long a blocked [`Engine::submit`] waits for capacity before
    /// giving up with [`SubmitError::Rejected`] (default 10 s).
    pub submit_timeout: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            vq: VqConfig::default(),
            max_concurrent: 8,
            queue_depth: 64,
            submit_timeout: Duration::from_secs(10),
        }
    }
}

impl EngineConfig {
    /// Engine with the given worker-pool config and default admission
    /// settings.
    pub fn with_vq(vq: VqConfig) -> Self {
        EngineConfig {
            vq,
            ..Default::default()
        }
    }
}

/// The handler type a query runs: any [`FallibleVisitHandler`] (infallible
/// [`VisitHandler`](crate::VisitHandler)s qualify via the blanket impl),
/// type-erased so one engine serves heterogeneous queries.
pub type DynHandler<'h, V> = dyn FallibleVisitHandler<V> + Send + Sync + 'h;

/// A visitor tagged with the query it belongs to. Ordering is by the
/// visitor first (priority semantics are unchanged), query id second (a
/// stable tiebreak so batch semi-sort groups same-query visitors).
pub(crate) struct Tagged<V> {
    pub(crate) v: V,
    pub(crate) qid: u32,
}

impl<V: Visitor> PartialEq for Tagged<V> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl<V: Visitor> Eq for Tagged<V> {}
impl<V: Visitor> PartialOrd for Tagged<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<V: Visitor> Ord for Tagged<V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.v.cmp(&other.v).then(self.qid.cmp(&other.qid))
    }
}

impl<V: Visitor> Visitor for Tagged<V> {
    fn target(&self) -> u64 {
        self.v.target()
    }
    fn priority(&self) -> u64 {
        self.v.priority()
    }
}

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
pub(crate) struct QueryShared<'h, V: Visitor> {
    qid: u32,
    handler: Arc<DynHandler<'h, V>>,
    tally: Tally,
    /// Finalizer election: exactly one thread retires the query.
    finished: AtomicBool,
    /// Submit-to-finalize latency, written once at retire.
    latency_ns: AtomicU64,
    done: Mutex<QueryDone>,
    done_cv: Condvar,
    submitted: Instant,
}

impl<'h, V: Visitor> QueryShared<'h, V> {
    fn new(qid: u32, handler: Arc<DynHandler<'h, V>>, seeded: u64) -> Self {
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
}

/// A query admitted past `max_concurrent` waiting in the bounded queue,
/// seeds pre-routed so activation is cheap.
struct PendingSubmit<'h, V: Visitor> {
    query: Arc<QueryShared<'h, V>>,
    /// Seed visitors grouped by destination queue.
    groups: Vec<Vec<Tagged<V>>>,
    seeded: u64,
}

/// Admission state, guarded by one mutex: how many queries run, how many
/// wait, and whether the engine is draining.
struct Admission<'h, V: Visitor> {
    /// Queries currently executing (≤ `max_concurrent`).
    active: usize,
    /// Active plus queued queries — what the graceful drain waits on.
    total_unfinished: usize,
    /// Set once [`scoped`]'s closure returns: no new submits, existing
    /// queries run to completion.
    draining: bool,
    queue: VecDeque<PendingSubmit<'h, V>>,
}

/// Everything the workers and the submitting side share.
struct EngineShared<'h, V: Visitor> {
    /// One mailbox per worker, shared by every query (visitors are
    /// [`Tagged`] so ownership of the *stream* stays per-worker while
    /// accounting stays per-query).
    inboxes: Vec<Mailbox<Tagged<V>>>,
    /// Live queries by id. Read per qid-switch on the worker hot path
    /// (amortized by the worker's one-entry query cache).
    queries: RwLock<HashMap<u32, Arc<QueryShared<'h, V>>>>,
    admission: Mutex<Admission<'h, V>>,
    /// Signalled when admission capacity frees up (submitters wait here).
    submit_cv: Condvar,
    /// Signalled when `total_unfinished` hits zero during a drain.
    drain_cv: Condvar,
    /// Graceful teardown: workers exit once idle.
    shutdown: AtomicBool,
    /// A worker panicked: every ticket fails, workers exit immediately.
    poisoned: AtomicBool,
    /// Mirror of `Admission::active` readable without the lock — the idle
    /// spin gate (workers skip spinning entirely when no query is active,
    /// the idle-burn fix for long-lived pools).
    active_count: AtomicU64,
    next_qid: AtomicU32,
    /// Queries finalized over the engine's lifetime.
    finalized: AtomicU64,
}

impl<'h, V: Visitor> EngineShared<'h, V> {
    fn new(num_threads: usize) -> Self {
        EngineShared {
            inboxes: (0..num_threads).map(|_| Mailbox::new()).collect(),
            queries: RwLock::new(HashMap::new()),
            admission: Mutex::new(Admission {
                active: 0,
                total_unfinished: 0,
                draining: false,
                queue: VecDeque::new(),
            }),
            submit_cv: Condvar::new(),
            drain_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            active_count: AtomicU64::new(0),
            next_qid: AtomicU32::new(0),
            finalized: AtomicU64::new(0),
        }
    }

    /// Make an admitted query live: publish it in the table, arm its
    /// pending counter, and deliver its seed groups. Returns `true` for
    /// the empty-seed degenerate case (the caller must retire it — no
    /// worker ever will).
    fn activate(
        &self,
        query: &Arc<QueryShared<'h, V>>,
        mut groups: Vec<Vec<Tagged<V>>>,
        seeded: u64,
    ) -> bool {
        // Table insert first (workers must be able to look the qid up the
        // moment a seed lands), counter before delivery (a delivered seed
        // may execute and complete before this function returns).
        self.queries.write().insert(query.qid, Arc::clone(query));
        query.tally.pending.store(seeded, Ordering::Release);
        for (dest, group) in groups.iter_mut().enumerate() {
            self.inboxes[dest].deliver(group);
        }
        // Poison may have run between the admission decision and the table
        // insert, missing this query in both its sweeps. Either its flag
        // store precedes this check (we fail the ticket here, idempotent)
        // or its table sweep sees our insert — no ticket is left hanging.
        if self.poisoned.load(Ordering::Acquire) {
            query.fail_poisoned();
        }
        seeded == 0
    }

    /// Retire a finalized query (pending hit zero): record latency and
    /// outcome, free its admission slot, wake its ticket, and pop the next
    /// queued submit (if any) into the freed slot. Exactly one caller wins
    /// the election; losers return `None`.
    fn retire<R: Recorder>(
        &self,
        q: &QueryShared<'h, V>,
        recorder: &R,
    ) -> Option<PendingSubmit<'h, V>> {
        if q.finished.swap(true, Ordering::AcqRel) {
            return None;
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
        let next = {
            let mut adm = self.admission.lock();
            adm.active -= 1;
            adm.total_unfinished -= 1;
            let next = adm.queue.pop_front();
            if next.is_some() {
                adm.active += 1;
            }
            self.active_count
                .store(adm.active as u64, Ordering::Relaxed);
            self.submit_cv.notify_all();
            if adm.draining && adm.total_unfinished == 0 {
                self.drain_cv.notify_all();
            }
            next
        };
        let mut done = q.done.lock();
        done.complete = true;
        q.done_cv.notify_all();
        next
    }

    /// Drive a query through retirement, activating queued successors. A
    /// successor with no seeds finalizes immediately and frees its slot in
    /// turn — handled iteratively so a burst of empty queries cannot
    /// recurse unboundedly.
    fn finalize<R: Recorder>(&self, q: &QueryShared<'h, V>, recorder: &R) {
        let mut next = self.retire(q, recorder);
        while let Some(p) = next {
            let PendingSubmit {
                query,
                groups,
                seeded,
            } = p;
            next = if self.activate(&query, groups, seeded) {
                self.retire(&query, recorder)
            } else {
                None
            };
        }
    }
}

/// The `Multi` routing policy: visitors carry their query id, a qid
/// resolves through the query table, and workers park between queries
/// until engine teardown.
impl<'h, V: Visitor> Route<V> for EngineShared<'h, V> {
    type Item = Tagged<V>;
    type Tag = u32;
    type Query = Arc<QueryShared<'h, V>>;
    type Handler = DynHandler<'h, V>;
    const PARK: Duration = ENGINE_PARK;

    fn inboxes(&self) -> &[Mailbox<Tagged<V>>] {
        &self.inboxes
    }

    #[inline]
    fn split(t: Tagged<V>) -> (V, u32) {
        (t.v, t.qid)
    }

    #[inline]
    fn sink(lanes: Lanes<'_, Tagged<V>>, qid: u32) -> Sink<'_, V> {
        Sink::Multi(lanes, qid)
    }

    fn lookup(&self, qid: u32) -> Option<Arc<QueryShared<'h, V>>> {
        self.queries.read().get(&qid).cloned()
    }

    #[inline]
    fn tag_of(q: &Arc<QueryShared<'h, V>>) -> u32 {
        q.qid
    }

    #[inline]
    fn tally<'a>(&'a self, q: &'a Arc<QueryShared<'h, V>>) -> &'a Tally {
        &q.tally
    }

    #[inline]
    fn handler<'a>(&'a self, q: &'a Arc<QueryShared<'h, V>>) -> &'a DynHandler<'h, V> {
        &*q.handler
    }

    fn finish<R: Recorder>(&self, q: &Arc<QueryShared<'h, V>>, recorder: &R) {
        self.finalize(q, recorder);
    }

    #[inline]
    fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) || self.poisoned.load(Ordering::Acquire)
    }

    /// Spin only while queries are in flight. A fully idle engine skips
    /// straight to the park: between queries there is nothing nanoseconds
    /// away to spin for, and N workers spinning between every request
    /// would burn N cores at idle.
    fn spin_budget(&self) -> u32 {
        if self.active_count.load(Ordering::Relaxed) == 0 {
            0
        } else {
            SPIN_ITERS
        }
    }

    /// A worker (or the driver) panicked: fail every live and queued
    /// query's ticket, block further submits, and wake everyone so the
    /// scope can come down.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.shutdown.store(true, Ordering::Release);
        {
            let queries = self.queries.read();
            for q in queries.values() {
                q.fail_poisoned();
            }
        }
        {
            let mut adm = self.admission.lock();
            adm.draining = true;
            while let Some(p) = adm.queue.pop_front() {
                adm.total_unfinished -= 1;
                p.query.fail_poisoned();
            }
            self.submit_cv.notify_all();
            self.drain_cv.notify_all();
        }
        self.wake_all();
    }
}

/// Why [`Engine::submit`] refused a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission stayed full for the whole
    /// [`submit_timeout`](EngineConfig::submit_timeout) — backpressure.
    Rejected,
    /// The engine is draining ([`scoped`]'s closure returned).
    ShuttingDown,
    /// A worker panicked; the engine is dead.
    Poisoned,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected => write!(f, "submit timed out waiting for admission capacity"),
            SubmitError::ShuttingDown => write!(f, "engine is shutting down"),
            SubmitError::Poisoned => write!(f, "engine poisoned by a panicked worker"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a submitted query failed (from [`QueryTicket::wait`]).
#[derive(Debug)]
pub enum QueryError {
    /// The query's handler returned `Err`: the first reason plus the
    /// partial stats accumulated before its visitors drained out. Sibling
    /// queries are unaffected.
    Aborted {
        /// First `Err` the query's handler surfaced.
        reason: AbortReason,
        /// Partial statistics (counts cover work before the abort;
        /// `visitors_dropped` counts what drained unexecuted after it).
        stats: QueryStats,
    },
    /// A worker panicked, taking the whole engine down; this query cannot
    /// report a result. [`scoped`] re-raises the panic after teardown.
    EnginePoisoned,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Aborted { reason, stats } => write!(
                f,
                "query aborted after {} visitors: {}",
                stats.visitors_executed, reason
            ),
            QueryError::EnginePoisoned => write!(f, "engine poisoned by a panicked worker"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Aborted { reason, .. } => Some(reason.as_ref()),
            QueryError::EnginePoisoned => None,
        }
    }
}

/// Statistics for one completed (or aborted) query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Visitors of this query executed.
    pub visitors_executed: u64,
    /// Visitors of this query pushed (seeds included). Equals
    /// `visitors_executed + visitors_dropped` at finalization.
    pub visitors_pushed: u64,
    /// Pushes that stayed on the pushing worker's own queue.
    pub local_pushes: u64,
    /// Visitors dropped unexecuted after this query aborted (always 0 for
    /// a normally terminated query).
    pub visitors_dropped: u64,
    /// Submit-to-finalize latency — queueing delay under admission control
    /// included, which is what a caller experiences.
    pub elapsed: Duration,
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
/// [`QueryTicket`]s back.
pub struct Engine<'s, 'h, V: Visitor, R: Recorder> {
    shared: &'s EngineShared<'h, V>,
    recorder: &'s R,
    cfg: &'s EngineConfig,
}

impl<'s, 'h, V: Visitor, R: Recorder> Engine<'s, 'h, V, R> {
    /// Number of worker threads (== number of visitor queues).
    pub fn num_workers(&self) -> usize {
        self.shared.inboxes.len()
    }

    /// Queries currently executing (an instantaneous snapshot).
    pub fn active_queries(&self) -> u64 {
        self.shared.active_count.load(Ordering::Relaxed)
    }

    fn reject<T>(&self, e: SubmitError) -> Result<T, SubmitError> {
        if R::ENABLED {
            self.recorder.counter(Counter::SubmitRejections, 1);
        }
        Err(e)
    }

    /// Submit a traversal: `seeds` are routed to the worker pool, executed
    /// under `handler`, and the returned [`QueryTicket`] resolves when the
    /// query's own in-flight counter hits zero.
    ///
    /// Admission: if fewer than [`max_concurrent`](EngineConfig::max_concurrent)
    /// queries are active the query starts immediately; otherwise it joins
    /// the bounded submit queue; if that is full too, the call blocks up to
    /// [`submit_timeout`](EngineConfig::submit_timeout) before returning
    /// [`SubmitError::Rejected`].
    pub fn submit<I>(
        &self,
        handler: Arc<DynHandler<'h, V>>,
        seeds: I,
    ) -> Result<QueryTicket<'h, V>, SubmitError>
    where
        I: IntoIterator<Item = V>,
    {
        let shared = self.shared;
        if shared.poisoned.load(Ordering::Acquire) {
            return self.reject(SubmitError::Poisoned);
        }
        let qid = shared.next_qid.fetch_add(1, Ordering::Relaxed);
        let num_queues = shared.inboxes.len();
        let mut groups: Vec<Vec<Tagged<V>>> = (0..num_queues).map(|_| Vec::new()).collect();
        let mut seeded: u64 = 0;
        for v in seeds {
            groups[route_of(v.target(), num_queues)].push(Tagged { v, qid });
            seeded += 1;
        }
        let query = Arc::new(QueryShared::new(qid, handler, seeded));

        let deadline = Instant::now() + self.cfg.submit_timeout;
        let mut adm = shared.admission.lock();
        loop {
            if shared.poisoned.load(Ordering::Acquire) {
                drop(adm);
                return self.reject(SubmitError::Poisoned);
            }
            if adm.draining || shared.shutdown.load(Ordering::Acquire) {
                drop(adm);
                return self.reject(SubmitError::ShuttingDown);
            }
            if adm.active < self.cfg.max_concurrent {
                adm.active += 1;
                adm.total_unfinished += 1;
                shared
                    .active_count
                    .store(adm.active as u64, Ordering::Relaxed);
                if R::ENABLED {
                    self.recorder
                        .gauge_max(Gauge::ActiveQueriesHwm, adm.active as u64);
                }
                drop(adm);
                if shared.activate(&query, groups, seeded) {
                    // No seeds: nothing will ever decrement pending, so the
                    // query finalizes here (possibly chaining successors).
                    shared.finalize(&query, self.recorder);
                }
                break;
            }
            if adm.queue.len() < self.cfg.queue_depth {
                adm.total_unfinished += 1;
                adm.queue.push_back(PendingSubmit {
                    query: Arc::clone(&query),
                    groups,
                    seeded,
                });
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                drop(adm);
                return self.reject(SubmitError::Rejected);
            }
            shared.submit_cv.wait_for(&mut adm, deadline - now);
        }

        if R::ENABLED {
            self.recorder.counter(Counter::QueriesSubmitted, 1);
            // Seed pushes are driver-attributed (overflow shard), matching
            // the single-run engine's accounting.
            self.recorder.counter(Counter::VisitorsPushed, seeded);
        }
        Ok(QueryTicket { query })
    }
}

/// A submitted query's completion handle. Dropping it without waiting is
/// fine — the query still runs to completion (or abort) and [`scoped`]'s
/// drain covers it.
pub struct QueryTicket<'h, V: Visitor> {
    query: Arc<QueryShared<'h, V>>,
}

impl<'h, V: Visitor> QueryTicket<'h, V> {
    /// Block until the query finalizes; returns its stats, its abort, or
    /// the engine's poison verdict.
    pub fn wait(self) -> Result<QueryStats, QueryError> {
        let q = &self.query;
        let mut done = q.done.lock();
        while !done.complete && !done.poisoned {
            q.done_cv.wait(&mut done);
        }
        let complete = done.complete;
        drop(done);
        if !complete {
            return Err(QueryError::EnginePoisoned);
        }
        let t = &q.tally;
        let stats = QueryStats {
            visitors_executed: t.executed.load(Ordering::Acquire),
            visitors_pushed: t.pushed.load(Ordering::Acquire),
            local_pushes: t.local_pushes.load(Ordering::Acquire),
            visitors_dropped: t.dropped.load(Ordering::Acquire),
            elapsed: Duration::from_nanos(q.latency_ns.load(Ordering::Acquire)),
        };
        match t.take_abort() {
            Some(reason) => Err(QueryError::Aborted { reason, stats }),
            None => Ok(stats),
        }
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
pub fn scoped<'env, V, R, T>(
    cfg: &EngineConfig,
    recorder: &R,
    f: impl FnOnce(&Engine<'_, 'env, V, R>) -> T,
) -> (T, EngineStats)
where
    V: Visitor + 'env,
    R: Recorder,
{
    let num_threads = cfg.vq.num_threads.max(1);
    let start = Instant::now();
    let shared: EngineShared<'env, V> = EngineShared::new(num_threads);
    let (out, totals) = serve(&shared, &cfg.vq, recorder, || {
        // If `f` panics, poison so workers exit and the scope's implicit
        // join completes instead of deadlocking under the unwind.
        let guard = DriverGuard(&shared);
        let engine = Engine {
            shared: &shared,
            recorder,
            cfg,
        };
        let out = f(&engine);
        // Graceful drain: no new submits, wait for every accepted query.
        {
            let mut adm = shared.admission.lock();
            adm.draining = true;
            while adm.total_unfinished > 0 && !shared.poisoned.load(Ordering::Acquire) {
                shared.drain_cv.wait(&mut adm);
            }
        }
        shared.shutdown.store(true, Ordering::Release);
        shared.wake_all();
        drop(guard);
        out
    });
    let stats = EngineStats {
        num_threads,
        parks: totals.parks,
        inbox_batches: totals.inbox_batches,
        queries: shared.finalized.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
    };
    (out, stats)
}

/// Upper bound on one idle park in a persistent engine. Long, because an
/// idle engine has nothing to poll for: wakes come from submits and
/// teardown, so reparking rarely keeps idle CPU near zero.
const ENGINE_PARK: Duration = Duration::from_millis(250);

/// Poison the engine if the driver closure unwinds (see [`scoped`]).
struct DriverGuard<'a, 'h, V: Visitor>(&'a EngineShared<'h, V>);

impl<'a, 'h, V: Visitor> Drop for DriverGuard<'a, 'h, V> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PushCtx;
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
        fn try_visit(&self, v: Chain, ctx: &mut PushCtx<'_, Chain>) -> Result<(), AbortReason> {
            self.visits.fetch_add(1, AO::Relaxed);
            if v.0 == self.fail_at {
                return Err(format!("injected failure at vertex {}", v.0).into());
            }
            if v.0 + 1 < self.end {
                ctx.push(Chain(v.0 + 1));
            }
            Ok(())
        }
    }

    #[test]
    fn concurrent_queries_complete_independently() {
        let cfg = EngineConfig {
            max_concurrent: 8,
            ..EngineConfig::with_vq(VqConfig::with_threads(4))
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
                .map(|h| {
                    engine
                        .submit(Arc::clone(h) as Arc<DynHandler<'_, Chain>>, [Chain(0)])
                        .unwrap()
                })
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
    fn aborted_query_leaves_siblings_untouched() {
        let cfg = EngineConfig::with_vq(VqConfig::with_threads(4));
        let good = Arc::new(ChainHandler {
            end: 20_000,
            visits: AtomicU64::new(0),
        });
        let bad = Arc::new(FailingChain {
            end: 100_000,
            fail_at: 100,
            visits: AtomicU64::new(0),
        });
        let ((good_res, bad_res), _stats) = scoped(&cfg, &NoopRecorder, |engine| {
            let tg = engine
                .submit(good.clone() as Arc<DynHandler<'_, Chain>>, [Chain(0)])
                .unwrap();
            let tb = engine
                .submit(bad.clone() as Arc<DynHandler<'_, Chain>>, [Chain(0)])
                .unwrap();
            (tg.wait(), tb.wait())
        });
        // The failing query aborted with its reason and exact progress:
        // the chain is sequential, so visits 0..=100 ran.
        match bad_res {
            Err(QueryError::Aborted { reason, stats }) => {
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

    #[test]
    fn admission_rejects_when_full_and_recovers() {
        // One execution slot, one queue slot, near-zero timeout: the third
        // concurrent submit must be rejected while the gate holds, and the
        // engine must recover once the gate opens.
        let gate = Arc::new(AtomicBool::new(false));

        struct Gated {
            gate: Arc<AtomicBool>,
            visits: AtomicU64,
        }
        impl crate::VisitHandler<Chain> for Gated {
            fn visit(&self, _v: Chain, _ctx: &mut PushCtx<'_, Chain>) {
                while !self.gate.load(AO::Acquire) {
                    std::thread::yield_now();
                }
                self.visits.fetch_add(1, AO::Relaxed);
            }
        }

        let cfg = EngineConfig {
            max_concurrent: 1,
            queue_depth: 1,
            submit_timeout: Duration::from_millis(20),
            ..EngineConfig::with_vq(VqConfig::with_threads(2))
        };
        let h = Arc::new(Gated {
            gate: gate.clone(),
            visits: AtomicU64::new(0),
        });
        let (outcome, stats) = scoped(&cfg, &NoopRecorder, |engine| {
            let t1 = engine
                .submit(h.clone() as Arc<DynHandler<'_, Chain>>, [Chain(1)])
                .unwrap();
            // Wait until the gated visitor is actually executing so the
            // active slot is provably occupied.
            while engine.active_queries() == 0 {
                std::thread::yield_now();
            }
            let t2 = engine
                .submit(h.clone() as Arc<DynHandler<'_, Chain>>, [Chain(2)])
                .unwrap();
            let rejected = engine
                .submit(h.clone() as Arc<DynHandler<'_, Chain>>, [Chain(3)])
                .err();
            gate.store(true, AO::Release);
            let s1 = t1.wait().unwrap();
            let s2 = t2.wait().unwrap();
            // Capacity freed: submits work again.
            let t4 = engine
                .submit(h.clone() as Arc<DynHandler<'_, Chain>>, [Chain(4)])
                .unwrap();
            (rejected, s1, s2, t4.wait().unwrap())
        });
        let (rejected, s1, s2, s4) = outcome;
        assert_eq!(rejected, Some(SubmitError::Rejected));
        assert_eq!(s1.visitors_executed, 1);
        assert_eq!(s2.visitors_executed, 1);
        assert_eq!(s4.visitors_executed, 1);
        assert_eq!(h.visits.load(AO::Relaxed), 3);
        assert_eq!(stats.queries, 3);
    }

    #[test]
    fn dropped_tickets_still_drain_before_shutdown() {
        let cfg = EngineConfig::with_vq(VqConfig::with_threads(2));
        let h = Arc::new(ChainHandler {
            end: 5_000,
            visits: AtomicU64::new(0),
        });
        let (_, stats) = scoped(&cfg, &NoopRecorder, |engine| {
            // Submit and immediately drop the ticket: the drain must still
            // run the query to completion before workers shut down.
            let _ = engine
                .submit(h.clone() as Arc<DynHandler<'_, Chain>>, [Chain(0)])
                .unwrap();
        });
        assert_eq!(h.visits.load(AO::Relaxed), 5_000);
        assert_eq!(stats.queries, 1);
    }

    #[test]
    fn empty_seed_query_completes_with_zero_stats() {
        let cfg = EngineConfig::with_vq(VqConfig::with_threads(2));
        let h = Arc::new(ChainHandler {
            end: 10,
            visits: AtomicU64::new(0),
        });
        let (qs, stats) = scoped(&cfg, &NoopRecorder, |engine| {
            engine
                .submit(h.clone() as Arc<DynHandler<'_, Chain>>, std::iter::empty())
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
        let cfg = EngineConfig::with_vq(VqConfig::with_threads(2));
        let result = std::panic::catch_unwind(|| {
            scoped(&cfg, &NoopRecorder, |engine: &Engine<'_, '_, Chain, _>| {
                let t = engine
                    .submit(Arc::new(Bomb) as Arc<DynHandler<'_, Chain>>, [Chain(0)])
                    .unwrap();
                // The ticket resolves as poisoned (not a hang) even though
                // the panic is re-raised at scope exit.
                matches!(t.wait(), Err(QueryError::EnginePoisoned))
            })
        });
        assert!(result.is_err(), "handler panic must propagate");
    }

    #[test]
    fn sixty_four_concurrent_queries_on_one_pool() {
        let cfg = EngineConfig {
            max_concurrent: 64,
            queue_depth: 64,
            ..EngineConfig::with_vq(VqConfig::with_threads(8))
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
                            hops.clone() as Arc<DynHandler<'_, HopV>>,
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
        let cfg = EngineConfig::with_vq(VqConfig::with_threads(4));
        let h = Arc::new(ChainHandler {
            end: 64,
            visits: AtomicU64::new(0),
        });
        for round in 0..50 {
            let mut closed = Instant::now();
            scoped(&cfg, &NoopRecorder, |engine| {
                engine
                    .submit(h.clone() as Arc<DynHandler<'_, Chain>>, [Chain(0)])
                    .unwrap()
                    .wait()
                    .unwrap();
                closed = Instant::now();
            });
            let teardown = closed.elapsed();
            assert!(
                teardown < ENGINE_PARK / 2,
                "round {round}: teardown took {teardown:?}, a parked worker missed its wake"
            );
        }
    }

    #[test]
    fn one_shot_matches_visitor_queue_semantics() {
        // The same chain as one engine query (Multi routing) and as a
        // one-shot run (Single routing): identical work and accounting.
        let cfg = VqConfig::with_threads(4);
        let h = Arc::new(ChainHandler {
            end: 1_000,
            visits: AtomicU64::new(0),
        });
        let (qs, _) = scoped(
            &EngineConfig::with_vq(cfg.clone()),
            &NoopRecorder,
            |engine| {
                engine
                    .submit(h.clone() as Arc<DynHandler<'_, Chain>>, [Chain(0)])
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
