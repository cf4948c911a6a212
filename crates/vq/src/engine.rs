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

use crate::bucket::BucketQueue;
use crate::config::VqConfig;
use crate::mailbox::Mailbox;
use crate::queue::{route_of, AbortedRun, RunStats};
use crate::visitor::{AbortReason, FallibleVisitHandler, Visitor};
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

/// How a query holds its handler: shared ownership for the public
/// [`Engine::submit`] path, a plain borrow for the internal [`one_shot`]
/// path (whose handler outlives the whole engine, so no `Arc` is needed —
/// and no `Send` bound either, preserving `VisitorQueue`'s contract that
/// handlers only need `Sync`).
enum HandlerRef<'h, V: Visitor> {
    Owned(Arc<DynHandler<'h, V>>),
    Borrowed(&'h (dyn FallibleVisitHandler<V> + Sync + 'h)),
}

impl<'h, V: Visitor> HandlerRef<'h, V> {
    #[inline]
    fn get(&self) -> &(dyn FallibleVisitHandler<V> + 'h) {
        match self {
            HandlerRef::Owned(a) => &**a,
            HandlerRef::Borrowed(r) => *r,
        }
    }
}

/// A visitor tagged with the query it belongs to. Ordering is by the
/// visitor first (priority semantics are unchanged), query id second (a
/// stable tiebreak so batch semi-sort groups same-query visitors).
pub(crate) struct Tagged<V> {
    v: V,
    qid: u32,
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

/// Per-query shared state: its handler, its private termination counter,
/// and the stat cells workers flush their ledgers into.
struct QueryShared<'h, V: Visitor> {
    qid: u32,
    handler: HandlerRef<'h, V>,
    /// Count of this query's visitors pushed but not yet completed — the
    /// per-query twin of the single-run pending counter, with the same
    /// over-count-only batching (deferred local increments, per-worker
    /// completion debt). Zero means the query terminated.
    pending: AtomicU64,
    /// Set when this query's handler returned `Err`; its remaining
    /// visitors drain out as drops, siblings are untouched.
    aborted: AtomicBool,
    /// First abort reason (later failures of the same query are dropped).
    abort_reason: Mutex<Option<AbortReason>>,
    /// Finalizer election: exactly one thread retires the query.
    finished: AtomicBool,
    executed: AtomicU64,
    /// Initialized to the seed count (seeds are driver pushes).
    pushed: AtomicU64,
    local_pushes: AtomicU64,
    /// Visitors of this query dropped unexecuted after its abort.
    dropped: AtomicU64,
    /// Submit-to-finalize latency, written once at retire.
    latency_ns: AtomicU64,
    done: Mutex<QueryDone>,
    done_cv: Condvar,
    submitted: Instant,
}

impl<'h, V: Visitor> QueryShared<'h, V> {
    fn new(qid: u32, handler: HandlerRef<'h, V>, seeded: u64) -> Self {
        QueryShared {
            qid,
            handler,
            pending: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            abort_reason: Mutex::new(None),
            finished: AtomicBool::new(false),
            executed: AtomicU64::new(0),
            pushed: AtomicU64::new(seeded),
            local_pushes: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            latency_ns: AtomicU64::new(0),
            done: Mutex::new(QueryDone {
                complete: false,
                poisoned: false,
            }),
            done_cv: Condvar::new(),
            submitted: Instant::now(),
        }
    }

    /// Record this query's abort: capture the first reason, then flag it.
    /// No wakeup is needed — a parked worker holds no visitors, so the
    /// aborted query's remaining work is already in mailboxes (whose
    /// delivery woke their owners) or in awake workers' heaps, and drains
    /// out as drops.
    fn abort(&self, reason: AbortReason) {
        let mut slot = self.abort_reason.lock();
        if slot.is_none() {
            *slot = Some(reason);
        }
        drop(slot);
        self.aborted.store(true, Ordering::Release);
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
    /// (amortized by the one-entry cache in [`engine_worker`]).
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

    /// Whether workers should exit (graceful shutdown or poison).
    #[inline]
    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) || self.poisoned.load(Ordering::Acquire)
    }

    /// Wake every parked worker (teardown).
    fn wake_all(&self) {
        for inbox in &self.inboxes {
            inbox.wake();
        }
    }

    fn lookup(&self, qid: u32) -> Option<Arc<QueryShared<'h, V>>> {
        self.queries.read().get(&qid).cloned()
    }

    /// A worker panicked: fail every live and queued query's ticket, block
    /// further submits, and wake everyone so the scope can come down.
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
        query.pending.store(seeded, Ordering::Release);
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
            if q.aborted.load(Ordering::Acquire) {
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
        self.done_notify(q, &mut done);
        next
    }

    fn done_notify(&self, q: &QueryShared<'h, V>, _done: &mut parking_lot::MutexGuard<QueryDone>) {
        q.done_cv.notify_all();
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
        self.submit_inner(HandlerRef::Owned(handler), seeds)
    }

    /// [`Self::submit`] over a borrowed handler that outlives the engine —
    /// the [`one_shot`] path, which must not require `Send` (or an `Arc`)
    /// of `VisitorQueue` handlers.
    pub(crate) fn submit_borrowed<I>(
        &self,
        handler: &'h (dyn FallibleVisitHandler<V> + Sync + 'h),
        seeds: I,
    ) -> Result<QueryTicket<'h, V>, SubmitError>
    where
        I: IntoIterator<Item = V>,
    {
        self.submit_inner(HandlerRef::Borrowed(handler), seeds)
    }

    fn submit_inner<I>(
        &self,
        handler: HandlerRef<'h, V>,
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
        let stats = QueryStats {
            visitors_executed: q.executed.load(Ordering::Acquire),
            visitors_pushed: q.pushed.load(Ordering::Acquire),
            local_pushes: q.local_pushes.load(Ordering::Acquire),
            visitors_dropped: q.dropped.load(Ordering::Acquire),
            elapsed: Duration::from_nanos(q.latency_ns.load(Ordering::Acquire)),
        };
        if q.aborted.load(Ordering::Acquire) {
            let reason = q
                .abort_reason
                .lock()
                .take()
                .expect("aborted query without a reason");
            return Err(QueryError::Aborted { reason, stats });
        }
        Ok(stats)
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
    scoped_with_park(cfg, ENGINE_PARK, recorder, f)
}

/// Upper bound on one idle park in a persistent engine. Long, because an
/// idle engine has nothing to poll for: wakes come from submits and
/// teardown, so reparking rarely keeps idle CPU near zero.
const ENGINE_PARK: Duration = Duration::from_millis(250);

/// Upper bound on one idle park in a one-shot run. Short until the
/// one-shot park question in DESIGN.md §14 is settled.
const ONE_SHOT_PARK: Duration = Duration::from_millis(1);

/// [`scoped`] with the workers' idle park bound. Every wake is delivered
/// under the mail lock, so `park` is a backstop, never a correctness
/// requirement (see the mailbox module docs).
fn scoped_with_park<'env, V, R, T>(
    cfg: &EngineConfig,
    park: Duration,
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
    let mut parks: u64 = 0;
    let mut inbox_batches: u64 = 0;
    let out = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(num_threads);
        for id in 0..num_threads {
            let shared = &shared;
            // Named so OS-level accounting (e.g. /proc/self/task/*/comm)
            // can attribute CPU to engine workers specifically.
            handles.push(
                std::thread::Builder::new()
                    .name(format!("vq-worker-{id}"))
                    .spawn_scoped(scope, move || {
                        engine_worker(shared, id, cfg, park, recorder)
                    })
                    .expect("spawn engine worker"),
            );
        }
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
        for h in handles {
            // A panicked worker has already poisoned the engine, so the
            // remaining workers exit; join then re-raises.
            let w = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            parks += w.parks;
            inbox_batches += w.inbox_batches;
        }
        drop(guard);
        out
    });
    let stats = EngineStats {
        num_threads,
        parks,
        inbox_batches,
        queries: shared.finalized.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
    };
    (out, stats)
}

/// Poison the engine if the driver closure unwinds (see [`scoped`]).
struct DriverGuard<'a, 'h, V: Visitor>(&'a EngineShared<'h, V>);

impl<'a, 'h, V: Visitor> Drop for DriverGuard<'a, 'h, V> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Poison the engine if a worker (i.e. a handler) panics.
struct WorkerPoisonGuard<'a, 'h, V: Visitor>(&'a EngineShared<'h, V>);

impl<'a, 'h, V: Visitor> Drop for WorkerPoisonGuard<'a, 'h, V> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Per-worker buffers of visitors addressed to other workers' queues.
///
/// Remote pushes are staged here and delivered in batches, amortizing the
/// inbox lock and (more importantly on oversubscribed hosts) the
/// wake-a-parked-thread syscall over many visitors instead of paying both
/// per push. Shared by all queries — batching is a property of the
/// worker, accounting a property of the query.
struct Outbox<T: Visitor> {
    buffers: Vec<Vec<T>>,
    /// Total staged visitors across all buffers.
    staged: u64,
    /// Destinations whose buffer crossed [`FLUSH_PER_DEST`] and should be
    /// delivered at the next between-visits point. Each destination
    /// appears at most once (recorded exactly when its buffer *reaches*
    /// the threshold).
    ready: Vec<usize>,
}

/// Per-destination delivery threshold. Flushing a buffer only once this
/// many visitors have accumulated for that destination keeps each
/// delivery (one lock acquisition) amortized over a real batch even when
/// pushes fan out across many queues.
const FLUSH_PER_DEST: usize = 128;

impl<T: Visitor> Outbox<T> {
    fn new(num_queues: usize) -> Self {
        Outbox {
            buffers: (0..num_queues).map(|_| Vec::new()).collect(),
            staged: 0,
            ready: Vec::new(),
        }
    }

    /// Deliver every staged visitor to its mailbox and wake owners whose
    /// mailbox transitioned from empty.
    fn flush(&mut self, inboxes: &[Mailbox<T>]) {
        self.ready.clear();
        if self.staged == 0 {
            return;
        }
        for (q, buf) in self.buffers.iter_mut().enumerate() {
            inboxes[q].deliver(buf);
        }
        self.staged = 0;
    }

    /// Deliver only the destinations whose buffers crossed
    /// [`FLUSH_PER_DEST`] (they may have grown further since).
    fn flush_ready(&mut self, inboxes: &[Mailbox<T>]) {
        while let Some(q) = self.ready.pop() {
            let buf = &mut self.buffers[q];
            self.staged -= buf.len() as u64;
            inboxes[q].deliver(buf);
        }
    }
}

/// Handle through which a [`VisitHandler`](crate::VisitHandler) emits new
/// visitors. Pushes addressed to the executing worker's own queue go
/// straight into its private heap with no synchronization; remote pushes
/// are staged in the worker's outbox. Emitted visitors inherit the
/// executing visitor's query id.
pub struct PushCtx<'a, V: Visitor> {
    inboxes: &'a [Mailbox<Tagged<V>>],
    /// The executing query's pending counter.
    pending: &'a AtomicU64,
    qid: u32,
    worker_id: usize,
    local_heap: &'a mut BucketQueue<Tagged<V>>,
    outbox: &'a mut Outbox<Tagged<V>>,
    pushed: u64,
    local_pushes: u64,
}

impl<'a, V: Visitor> PushCtx<'a, V> {
    /// Enqueue a visitor. Routing is by hash of `v.target()`; the visitor
    /// will execute on the worker owning that hash bucket, ordered by the
    /// visitor's `Ord` priority among that queue's contents.
    #[inline]
    pub fn push(&mut self, v: V) {
        self.pushed += 1;
        let q = route_of(v.target(), self.inboxes.len());
        let t = Tagged { v, qid: self.qid };
        if q == self.worker_id {
            // Local fast path: no lock, and the pending increment is
            // deferred to the end of the visit (the executing visitor's own
            // pending unit keeps the counter positive until then, and only
            // this worker can drain its private heap).
            self.local_pushes += 1;
            self.local_heap.push(t);
        } else {
            // Remote pushes must be globally visible *before* the mail can
            // be delivered, or the recipient could complete it and drive
            // the query's counter to zero while our accounting is still in
            // flight.
            self.pending.fetch_add(1, Ordering::Relaxed);
            let buf = &mut self.outbox.buffers[q];
            buf.push(t);
            self.outbox.staged += 1;
            if buf.len() == FLUSH_PER_DEST {
                self.outbox.ready.push(q);
            }
        }
    }

    /// Id of the worker executing the current visitor.
    pub fn worker_id(&self) -> usize {
        self.worker_id
    }

    /// Number of workers (== number of queues) in this engine.
    pub fn num_workers(&self) -> usize {
        self.inboxes.len()
    }
}

/// Per-worker, per-current-query accounting, flushed to the query's atomics
/// when the worker switches queries or runs out of local work. Holding debt
/// makes the query's `pending` an over-count — safe (termination is only
/// delayed) — and turns the per-visitor decrement into one amortized
/// subtraction. Stats are flushed *before* the debt, so when a query's
/// counter reaches zero every stat that contributed is already visible.
#[derive(Default)]
struct Ledger {
    debt: u64,
    executed: u64,
    pushed: u64,
    local: u64,
    dropped: u64,
}

const DEBT_FLUSH: u64 = 256;

impl Ledger {
    fn settle<'h, V: Visitor, R: Recorder>(
        &mut self,
        shared: &EngineShared<'h, V>,
        q: &QueryShared<'h, V>,
        recorder: &R,
    ) {
        if self.executed > 0 {
            q.executed.fetch_add(self.executed, Ordering::Relaxed);
            self.executed = 0;
        }
        if self.pushed > 0 {
            q.pushed.fetch_add(self.pushed, Ordering::Relaxed);
            self.pushed = 0;
        }
        if self.local > 0 {
            q.local_pushes.fetch_add(self.local, Ordering::Relaxed);
            self.local = 0;
        }
        if self.dropped > 0 {
            q.dropped.fetch_add(self.dropped, Ordering::Relaxed);
            self.dropped = 0;
        }
        let debt = std::mem::take(&mut self.debt);
        // The release half of this RMW publishes the stat stores above;
        // the finalizing fetch_sub that observes zero acquires the whole
        // release sequence, so finalized stats are complete.
        if debt > 0 && q.pending.fetch_sub(debt, Ordering::AcqRel) == debt {
            shared.finalize(q, recorder);
        }
    }
}

/// Idle spin iterations before a worker parks: short, because parked
/// threads free the core under oversubscription.
const SPIN_ITERS: u32 = 16;

/// First idle-spin tier: iterations spent in [`std::hint::spin_loop`]
/// bursts (cheap, keeps the core; right when mail is nanoseconds away)
/// before the loop falls back to [`std::thread::yield_now`] (frees the
/// core; right under oversubscription). Each burst doubles in length.
const SPIN_HINT_ITERS: u32 = 6;

#[derive(Default)]
struct WorkerTotals {
    parks: u64,
    inbox_batches: u64,
}

/// Switch the worker's one-entry query cache to `qid`, settling the ledger
/// for the previous query first. Returns `false` if the qid is unknown
/// (impossible while its visitors hold pending units; guarded anyway).
fn switch_query<'h, V: Visitor, R: Recorder>(
    shared: &EngineShared<'h, V>,
    cur: &mut Option<Arc<QueryShared<'h, V>>>,
    led: &mut Ledger,
    qid: u32,
    recorder: &R,
) -> bool {
    if cur.as_ref().map(|q| q.qid) != Some(qid) {
        if let Some(prev) = cur.take() {
            led.settle(shared, &prev, recorder);
        }
        *cur = shared.lookup(qid);
    }
    cur.is_some()
}

fn engine_worker<'h, V: Visitor, R: Recorder>(
    shared: &EngineShared<'h, V>,
    id: usize,
    cfg: &EngineConfig,
    park: Duration,
    recorder: &R,
) -> WorkerTotals {
    let inbox = &shared.inboxes[id];
    let mut heap: BucketQueue<Tagged<V>> =
        BucketQueue::new(cfg.vq.priority_shift, cfg.vq.sort_buckets);
    let mut outbox: Outbox<Tagged<V>> = Outbox::new(shared.inboxes.len());
    let mut totals = WorkerTotals::default();
    let poison_guard = WorkerPoisonGuard(shared);
    if R::ENABLED {
        recorder.register_worker(id);
        recorder.timeline("worker_start");
    }

    // Backstop: a full flush once this many visitors are staged in total,
    // so a push pattern that never fills any single destination buffer
    // still bounds the delivery latency the batching introduces.
    let outbox_max_staged: u64 = (FLUSH_PER_DEST * shared.inboxes.len()) as u64;

    // Visitors drained for the current service round, split into parallel
    // visitor/qid columns so `prepare_batch` can see contiguous `&[V]`
    // runs; reused across rounds so the hot path does not allocate.
    let batch_drain = cfg.vq.batch_drain.max(1);
    let mut bvis: Vec<V> = Vec::with_capacity(batch_drain);
    let mut bqid: Vec<u32> = Vec::with_capacity(batch_drain);

    // One-entry cache of the query the worker is currently executing, with
    // its unsettled accounting. Interleaved streams switch rarely (the
    // heap's semi-sort groups same-query visitors), so the queries-table
    // read-lock stays off the per-visitor path.
    let mut cur: Option<Arc<QueryShared<'h, V>>> = None;
    let mut led = Ledger::default();

    'outer: loop {
        // Merge any mail into the private heap so priorities interleave.
        if inbox.has_mail() {
            let moved = inbox.drain(&mut heap, recorder);
            if moved > 0 {
                totals.inbox_batches += 1;
            }
        }

        // Drain up to `batch_drain` visitors for this service round.
        while bvis.len() < batch_drain {
            match heap.pop() {
                Some(t) => {
                    bvis.push(t.v);
                    bqid.push(t.qid);
                }
                None => break,
            }
        }
        if !bvis.is_empty() {
            if bvis.len() > 1 {
                // Advisory hint before any visitor runs: semi-external
                // handlers coalesce the batch's adjacency reads here. One
                // call per contiguous same-query run (the semi-sort's qid
                // tiebreak keeps runs long); aborted queries are skipped.
                let mut i = 0;
                while i < bqid.len() {
                    let qid = bqid[i];
                    let mut j = i + 1;
                    while j < bqid.len() && bqid[j] == qid {
                        j += 1;
                    }
                    if j - i > 1 && switch_query(shared, &mut cur, &mut led, qid, recorder) {
                        let q = cur.as_ref().expect("switch_query returned true");
                        if !q.aborted.load(Ordering::Acquire) {
                            q.handler.get().prepare_batch(&bvis[i..j]);
                        }
                    }
                    i = j;
                }
            }
            if R::ENABLED {
                recorder.observe(HistKind::BatchDrainSize, bvis.len() as u64);
            }
            for (v, qid) in bvis.drain(..).zip(bqid.drain(..)) {
                if shared.poisoned.load(Ordering::Acquire) {
                    // Engine-level teardown: drop everything and leave.
                    break 'outer;
                }
                if !switch_query(shared, &mut cur, &mut led, qid, recorder) {
                    debug_assert!(false, "visitor for unknown query {qid}");
                    continue;
                }
                let q = cur.as_ref().expect("switch_query returned true");
                if q.aborted.load(Ordering::Acquire) {
                    // This query is coming down: its visitors drain as
                    // uncounted drops so its pending counter still reaches
                    // zero and the ticket resolves.
                    led.dropped += 1;
                    led.debt += 1;
                    if led.debt >= DEBT_FLUSH {
                        led.settle(shared, q, recorder);
                    }
                    continue;
                }
                let mut ctx = PushCtx {
                    inboxes: &shared.inboxes,
                    pending: &q.pending,
                    qid,
                    worker_id: id,
                    local_heap: &mut heap,
                    outbox: &mut outbox,
                    pushed: 0,
                    local_pushes: 0,
                };
                let visit_start = if R::ENABLED {
                    Some(Instant::now())
                } else {
                    None
                };
                let outcome = q.handler.get().try_visit(v, &mut ctx);
                let (pushed, local_pushes) = (ctx.pushed, ctx.local_pushes);
                if let Some(t0) = visit_start {
                    recorder.observe(HistKind::ServiceTimeNs, t0.elapsed().as_nanos() as u64);
                }
                if local_pushes > 0 {
                    // Publish deferred-increment local pushes (see PushCtx).
                    // Done even on an aborting visit so the counter never
                    // under-counts while other workers may be settling it.
                    q.pending.fetch_add(local_pushes, Ordering::Relaxed);
                }
                if R::ENABLED {
                    recorder.counter(Counter::VisitorsExecuted, 1);
                    recorder.counter(Counter::VisitorsPushed, pushed);
                    recorder.counter(Counter::LocalPushes, local_pushes);
                    recorder.counter(Counter::RemotePushes, pushed - local_pushes);
                }
                led.executed += 1;
                led.pushed += pushed;
                led.local += local_pushes;
                led.debt += 1;
                if let Err(reason) = outcome {
                    // Abort *this query only*; the worker keeps serving
                    // siblings, and this query's queued visitors drain out
                    // as drops above.
                    q.abort(reason);
                }
                if led.debt >= DEBT_FLUSH {
                    led.settle(shared, q, recorder);
                }
                if !outbox.ready.is_empty() {
                    if R::ENABLED {
                        recorder.counter(Counter::OutboxFlushes, 1);
                    }
                    outbox.flush_ready(&shared.inboxes);
                } else if outbox.staged >= outbox_max_staged {
                    if R::ENABLED {
                        recorder.counter(Counter::OutboxFlushes, 1);
                    }
                    outbox.flush(&shared.inboxes);
                }
            }
            continue;
        }

        // Out of local work: deliver staged mail (other workers may be
        // waiting on it), then settle the ledger so the current query's
        // counter is exact before this worker goes quiet.
        if R::ENABLED && outbox.staged > 0 {
            recorder.counter(Counter::OutboxFlushes, 1);
        }
        outbox.flush(&shared.inboxes);
        if let Some(q) = cur.take() {
            led.settle(shared, &q, recorder);
        }

        // Idle: adaptive spin before parking — but only while queries are
        // in flight. A fully idle engine skips straight to the park (the
        // long-lived-pool fix: between queries there is nothing nanoseconds
        // away to spin for, and N workers spinning between every request
        // would burn N cores at idle).
        let spin_budget = if shared.active_count.load(Ordering::Relaxed) == 0 {
            0
        } else {
            SPIN_ITERS
        };
        let mut spun: u32 = 0;
        while spun < spin_budget {
            if inbox.has_mail() {
                continue 'outer;
            }
            if shared.stopping() {
                break 'outer;
            }
            if spun < SPIN_HINT_ITERS {
                for _ in 0..(1u32 << spun) {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
            spun += 1;
        }

        // Park until mail arrives or the engine stops; any mail found is
        // drained into the heap before idle_wait returns. Unlike the
        // single-run loop there is no pending==0 exit: an idle engine
        // worker parks and waits for the next query.
        let idle = inbox.idle_wait(&mut heap, || shared.stopping(), park, recorder);
        totals.parks += idle.parks;
        if idle.exit {
            break 'outer;
        }
        if idle.drained > 0 {
            totals.inbox_batches += 1;
        }
    }

    if R::ENABLED {
        recorder.timeline("worker_exit");
    }
    drop(poison_guard);
    totals
}

/// Run one traversal on a throwaway single-query engine — the
/// implementation behind every [`VisitorQueue`](crate::VisitorQueue) entry
/// point, so the one-shot and persistent paths cannot drift.
pub(crate) fn one_shot<V, H, I, R>(
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
    let seeds: Vec<V> = init.into_iter().collect();
    if seeds.is_empty() {
        // Nothing to traverse: matches the historical behaviour of not
        // spawning workers at all for an empty seed set.
        return Ok(RunStats {
            num_threads,
            ..Default::default()
        });
    }
    let ecfg = EngineConfig {
        vq: cfg.clone(),
        max_concurrent: 1,
        queue_depth: 0,
        submit_timeout: Duration::ZERO,
    };
    let start = Instant::now();
    let (result, estats) = scoped_with_park(
        &ecfg,
        ONE_SHOT_PARK,
        recorder,
        |engine: &Engine<'_, '_, V, R>| {
            let ticket = engine
                .submit_borrowed(handler, seeds)
                .expect("single submit on an empty engine cannot be refused");
            ticket.wait()
        },
    );
    let elapsed = start.elapsed();
    let build = |qs: QueryStats| RunStats {
        visitors_executed: qs.visitors_executed,
        visitors_pushed: qs.visitors_pushed,
        local_pushes: qs.local_pushes,
        parks: estats.parks,
        inbox_batches: estats.inbox_batches,
        elapsed,
        num_threads,
    };
    match result {
        Ok(qs) => Ok(build(qs)),
        Err(QueryError::Aborted { reason, stats }) => Err(AbortedRun {
            reason,
            stats: build(stats),
        }),
        Err(QueryError::EnginePoisoned) => {
            unreachable!("worker panic re-raises inside scoped before this")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let h = ChainHandler {
            end: 1_000,
            visits: AtomicU64::new(0),
        };
        let s = one_shot(
            &VqConfig::with_threads(4),
            &h,
            [Chain(0)],
            &asyncgt_obs::NoopRecorder,
        )
        .unwrap();
        assert_eq!(s.visitors_executed, 1_000);
        assert_eq!(s.visitors_pushed, 1_000);
        assert_eq!(s.num_threads, 4);
        assert_eq!(h.visits.load(AO::Relaxed), 1_000);
    }
}
