//! The service loop every worker runs, generic over a routing policy.
//!
//! A worker owns a private bucket queue, drains its mailbox into it,
//! executes visitors in priority order and stages remote pushes in an
//! outbox. That loop is written once, here, as [`engine_worker`]. What
//! differs between a one-shot traversal and a persistent multi-query
//! engine is only how a queued item finds its handler and its termination
//! counter — the [`Route`] policy:
//!
//! * **Single** (`crate::queue`): one traversal. Queues carry the bare
//!   visitor `V`, the handler is a monomorphized `&H`, there is one pending
//!   counter plus a poison flag, and the workers exit once the counter
//!   reaches zero.
//! * **Multi** (`crate::engine`): many concurrent queries. Queues carry
//!   `Tagged { v, qid }`, the handler is a `dyn` call on the query's
//!   `Arc`, and a one-entry query cache (`switch_query`) resolves the qid;
//!   workers park between queries and exit only at engine teardown.
//!
//! Both run the same termination protocol per query: pushes to the
//! worker's own queue defer their pending increment to the end of the
//! visit, remote pushes increment before they can be delivered, and
//! completions accumulate in a per-worker [`Ledger`] whose debt is settled
//! every [`DEBT_FLUSH`] visitors and whenever the worker runs out of local
//! work. The counter may over-count, never under-count, so it reaches zero
//! only when no visitor of the query is queued or in flight (DESIGN.md
//! §14). A handler `Err` aborts its query: the first reason is kept, and
//! the query's remaining visitors drain out unexecuted, so the counter
//! still reaches zero. A handler panic poisons the whole pool.

use crate::bucket::BucketQueue;
use crate::config::VqConfig;
use crate::engine::Tagged;
use crate::mailbox::Mailbox;
use crate::queue::route_of;
use crate::visitor::{AbortReason, FallibleVisitHandler, Visitor};
use asyncgt_obs::{Counter, HistKind, Recorder};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How the worker loop routes queued items to handlers and accounts for
/// them. Implemented by the one-shot run (`queue::Single`) and the
/// persistent engine (`engine::EngineShared`).
pub(crate) trait Route<V: Visitor>: Sync {
    /// What the queues and mailboxes carry.
    type Item: Visitor;
    /// What an item carries besides its visitor: `()` or a query id.
    type Tag: Copy + PartialEq;
    /// A worker's handle on the query it is executing.
    type Query;
    /// The handler a query runs.
    type Handler: FallibleVisitHandler<V> + ?Sized;
    /// Upper bound on one idle park. Every wake is delivered under the
    /// mail lock, so the park is a backstop, never a correctness
    /// requirement (see the mailbox module docs).
    const PARK: Duration;

    /// One mailbox per worker.
    fn inboxes(&self) -> &[Mailbox<Self::Item>];
    /// Separate a popped item into its visitor and its tag.
    fn split(item: Self::Item) -> (V, Self::Tag);
    /// The push sink a visit of a `tag` query writes into.
    fn sink(lanes: Lanes<'_, Self::Item>, tag: Self::Tag) -> Sink<'_, V>;
    /// Resolve a tag to its live query (`None` only for an unknown qid).
    fn lookup(&self, tag: Self::Tag) -> Option<Self::Query>;
    /// The tag of a resolved query.
    fn tag_of(q: &Self::Query) -> Self::Tag;
    /// A query's termination counter and stat cells.
    fn tally<'a>(&'a self, q: &'a Self::Query) -> &'a Tally;
    /// A query's handler.
    fn handler<'a>(&'a self, q: &'a Self::Query) -> &'a Self::Handler;
    /// `q`'s pending counter just reached zero; called exactly once.
    fn finish<R: Recorder>(&self, q: &Self::Query, recorder: &R);
    /// A worker panicked: every worker drops its work and exits.
    fn poisoned(&self) -> bool;
    /// Whether an idle worker should exit instead of waiting for mail.
    fn stopping(&self) -> bool;
    /// Idle spin iterations before parking.
    fn spin_budget(&self) -> u32;
    /// Record a worker panic and wake every parked worker.
    fn poison(&self);

    /// Wake every parked worker (termination, teardown, poison).
    fn wake_all(&self) {
        for inbox in self.inboxes() {
            inbox.wake();
        }
    }
}

/// One query's termination counter, abort state and stat cells. Workers
/// flush their [`Ledger`]s into it.
pub(crate) struct Tally {
    /// Count of this query's visitors pushed but not yet completed, with
    /// the over-count-only batching of the module docs. Zero means the
    /// query terminated.
    pub(crate) pending: AtomicU64,
    /// Set when the handler returned `Err`; the query's remaining visitors
    /// drain out as drops.
    pub(crate) aborted: AtomicBool,
    /// First abort reason (later failures of the same query are dropped).
    abort_reason: Mutex<Option<AbortReason>>,
    pub(crate) executed: AtomicU64,
    /// Initialized to the seed count (seeds are driver pushes).
    pub(crate) pushed: AtomicU64,
    pub(crate) local_pushes: AtomicU64,
    /// Visitors dropped unexecuted after the abort.
    pub(crate) dropped: AtomicU64,
}

impl Tally {
    /// A query with `seeded` driver pushes; the caller arms `pending`
    /// before delivering the seeds.
    pub(crate) fn new(seeded: u64) -> Self {
        Tally {
            pending: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            abort_reason: Mutex::new(None),
            executed: AtomicU64::new(0),
            pushed: AtomicU64::new(seeded),
            local_pushes: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Record an abort: capture the first reason, then flag the query. No
    /// wakeup is needed — a parked worker holds no visitors, so the
    /// query's remaining work is already in mailboxes (whose delivery woke
    /// their owners) or in awake workers' heaps, and drains out as drops.
    fn abort(&self, reason: AbortReason) {
        let mut slot = self.abort_reason.lock();
        if slot.is_none() {
            *slot = Some(reason);
        }
        drop(slot);
        self.aborted.store(true, Ordering::Release);
    }

    /// The first abort reason, if the query aborted (taken once).
    pub(crate) fn take_abort(&self) -> Option<AbortReason> {
        if !self.aborted.load(Ordering::Acquire) {
            return None;
        }
        let reason = self.abort_reason.lock().take();
        Some(reason.expect("aborted query without a reason"))
    }
}

/// Per-worker, per-current-query accounting, flushed to the query's
/// [`Tally`] when the worker switches queries, runs out of local work, or
/// has accumulated [`DEBT_FLUSH`] completions. Holding debt makes the
/// query's `pending` an over-count — safe (termination is only delayed) —
/// and turns the per-visitor decrement into one amortized subtraction.
/// Stats are flushed *before* the debt, so when a query's counter reaches
/// zero every stat that contributed is already visible.
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
    /// Flush into `t`. Returns whether this settle drove the query's
    /// pending counter to zero (its caller must then finish the query).
    fn settle(&mut self, t: &Tally) -> bool {
        if self.executed > 0 {
            t.executed.fetch_add(self.executed, Ordering::Relaxed);
            self.executed = 0;
        }
        if self.pushed > 0 {
            t.pushed.fetch_add(self.pushed, Ordering::Relaxed);
            self.pushed = 0;
        }
        if self.local > 0 {
            t.local_pushes.fetch_add(self.local, Ordering::Relaxed);
            self.local = 0;
        }
        if self.dropped > 0 {
            t.dropped.fetch_add(self.dropped, Ordering::Relaxed);
            self.dropped = 0;
        }
        let debt = std::mem::take(&mut self.debt);
        // The release half of this RMW publishes the stat stores above;
        // the finalizing fetch_sub that observes zero acquires the whole
        // release sequence, so finalized stats are complete.
        debt > 0 && t.pending.fetch_sub(debt, Ordering::AcqRel) == debt
    }
}

/// Settle `led` into `q` and finish `q` if that drained its counter.
fn settle<V: Visitor, P: Route<V>, R: Recorder>(
    p: &P,
    q: &P::Query,
    led: &mut Ledger,
    recorder: &R,
) {
    if led.settle(p.tally(q)) {
        p.finish(q, recorder);
    }
}

/// Per-worker buffers of visitors addressed to other workers' queues.
///
/// Remote pushes are staged here and delivered in batches, amortizing the
/// inbox lock and (more importantly on oversubscribed hosts) the
/// wake-a-parked-thread syscall over many visitors instead of paying both
/// per push. Under `Multi` it is shared by all queries — batching is a
/// property of the worker, accounting a property of the query.
pub(crate) struct Outbox<T: Visitor> {
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

    /// Stage one visitor for queue `q`.
    #[inline]
    fn stage(&mut self, q: usize, t: T) {
        let buf = &mut self.buffers[q];
        buf.push(t);
        self.staged += 1;
        if buf.len() == FLUSH_PER_DEST {
            self.ready.push(q);
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

/// The executing worker's queue and outbox for items of type `T`.
pub(crate) struct Lanes<'a, T: Visitor> {
    heap: &'a mut BucketQueue<T>,
    outbox: &'a mut Outbox<T>,
}

impl<T: Visitor> Lanes<'_, T> {
    #[inline]
    fn put(&mut self, t: T, q: usize, local: bool) {
        if local {
            self.heap.push(t);
        } else {
            self.outbox.stage(q, t);
        }
    }
}

/// Where a visit's pushes go: the bare visitor under `Single`, the
/// visitor tagged with the executing query's id under `Multi`.
pub(crate) enum Sink<'a, V: Visitor> {
    Single(Lanes<'a, V>),
    Multi(Lanes<'a, Tagged<V>>, u32),
}

/// Handle through which a [`VisitHandler`](crate::VisitHandler) emits new
/// visitors. Pushes addressed to the executing worker's own queue go
/// straight into its private heap with no synchronization; remote pushes
/// are staged in the worker's outbox. In a persistent engine, emitted
/// visitors inherit the executing visitor's query id.
pub struct PushCtx<'a, V: Visitor> {
    /// The executing query's pending counter.
    pending: &'a AtomicU64,
    worker_id: usize,
    num_workers: usize,
    pushed: u64,
    local_pushes: u64,
    sink: Sink<'a, V>,
}

impl<'a, V: Visitor> PushCtx<'a, V> {
    /// Enqueue a visitor. Routing is by hash of `v.target()`; the visitor
    /// will execute on the worker owning that hash bucket, ordered by the
    /// visitor's `Ord` priority among that queue's contents.
    #[inline]
    pub fn push(&mut self, v: V) {
        self.pushed += 1;
        let q = route_of(v.target(), self.num_workers);
        let local = q == self.worker_id;
        if local {
            // Local fast path: no lock, and the pending increment is
            // deferred to the end of the visit (the executing visitor's own
            // pending unit keeps the counter positive until then, and only
            // this worker can drain its private heap).
            self.local_pushes += 1;
        } else {
            // Remote pushes must be globally visible *before* the mail can
            // be delivered, or the recipient could complete it and drive
            // the query's counter to zero while our accounting is still in
            // flight.
            self.pending.fetch_add(1, Ordering::Relaxed);
        }
        match &mut self.sink {
            Sink::Single(lanes) => lanes.put(v, q, local),
            Sink::Multi(lanes, qid) => lanes.put(Tagged { v, qid: *qid }, q, local),
        }
    }

    /// Id of the worker executing the current visitor.
    pub fn worker_id(&self) -> usize {
        self.worker_id
    }

    /// Number of workers (== number of queues).
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }
}

/// Idle spin iterations before a worker parks: short, because parked
/// threads free the core under oversubscription.
pub(crate) const SPIN_ITERS: u32 = 16;

/// First idle-spin tier: iterations spent in [`std::hint::spin_loop`]
/// bursts (cheap, keeps the core; right when mail is nanoseconds away)
/// before the loop falls back to [`std::thread::yield_now`] (frees the
/// core; right under oversubscription). Each burst doubles in length.
const SPIN_HINT_ITERS: u32 = 6;

/// Lifetime totals of one worker, summed over the pool at join.
#[derive(Default)]
pub(crate) struct WorkerTotals {
    pub(crate) parks: u64,
    pub(crate) inbox_batches: u64,
}

/// Spawn one worker per mailbox of `p` (threads named `vq-worker-{id}`, so
/// OS-level accounting such as `/proc/self/task/*/comm` can attribute
/// their CPU), run `driver` on the calling thread, then join every worker.
///
/// # Panics
/// Re-raises a worker (handler) panic after every worker has exited.
pub(crate) fn serve<V, P, R, T>(
    p: &P,
    cfg: &VqConfig,
    recorder: &R,
    driver: impl FnOnce() -> T,
) -> (T, WorkerTotals)
where
    V: Visitor,
    P: Route<V>,
    R: Recorder,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..p.inboxes().len())
            .map(|id| {
                std::thread::Builder::new()
                    .name(format!("vq-worker-{id}"))
                    .spawn_scoped(scope, move || engine_worker(p, id, cfg, recorder))
                    .expect("spawn vq worker")
            })
            .collect();
        let out = driver();
        let mut totals = WorkerTotals::default();
        for h in handles {
            // A panicked worker has already poisoned the pool, so the
            // remaining workers exit; join then re-raises.
            let w = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            totals.parks += w.parks;
            totals.inbox_batches += w.inbox_batches;
        }
        (out, totals)
    })
}

/// Poison the pool if a worker (i.e. a handler) panics.
struct PoisonGuard<'a, V: Visitor, P: Route<V>>(&'a P, std::marker::PhantomData<V>);

impl<V: Visitor, P: Route<V>> Drop for PoisonGuard<'_, V, P> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Switch the worker's one-entry query cache to `tag`, settling the ledger
/// for the previous query first. Returns `false` if the tag is unknown
/// (impossible while its visitors hold pending units; guarded anyway).
/// Under `Single` the tag is `()` and a lookup costs nothing.
#[inline]
fn switch_query<V: Visitor, P: Route<V>, R: Recorder>(
    p: &P,
    cur: &mut Option<P::Query>,
    led: &mut Ledger,
    tag: P::Tag,
    recorder: &R,
) -> bool {
    if cur.as_ref().map(P::tag_of) != Some(tag) {
        if let Some(prev) = cur.take() {
            settle(p, &prev, led, recorder);
        }
        *cur = p.lookup(tag);
    }
    cur.is_some()
}

/// The worker service loop (see the module docs): the only one, for both
/// routing policies.
pub(crate) fn engine_worker<V: Visitor, P: Route<V>, R: Recorder>(
    p: &P,
    id: usize,
    cfg: &VqConfig,
    recorder: &R,
) -> WorkerTotals {
    let inboxes = p.inboxes();
    let inbox = &inboxes[id];
    let mut heap: BucketQueue<P::Item> = BucketQueue::new(cfg.priority_shift, cfg.sort_buckets);
    let mut outbox: Outbox<P::Item> = Outbox::new(inboxes.len());
    let mut totals = WorkerTotals::default();
    let poison_guard = PoisonGuard(p, std::marker::PhantomData);
    if R::ENABLED {
        recorder.register_worker(id);
        recorder.timeline("worker_start");
    }

    // Backstop: a full flush once this many visitors are staged in total,
    // so a push pattern that never fills any single destination buffer
    // still bounds the delivery latency the batching introduces.
    let outbox_max_staged: u64 = (FLUSH_PER_DEST * inboxes.len()) as u64;

    // Visitors drained for the current service round, split into parallel
    // visitor/tag columns so `prepare_batch` can see contiguous `&[V]`
    // runs; reused across rounds so the hot path does not allocate.
    let batch_drain = cfg.batch_drain.max(1);
    let mut bvis: Vec<V> = Vec::with_capacity(batch_drain);
    let mut btag: Vec<P::Tag> = Vec::with_capacity(batch_drain);

    // One-entry cache of the query the worker is currently executing, with
    // its unsettled accounting. Interleaved streams switch rarely (the
    // heap's semi-sort groups same-query visitors), so the query lookup
    // stays off the per-visitor path.
    let mut cur: Option<P::Query> = None;
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
                Some(item) => {
                    let (v, tag) = P::split(item);
                    bvis.push(v);
                    btag.push(tag);
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
                while i < btag.len() {
                    let tag = btag[i];
                    let mut j = i + 1;
                    while j < btag.len() && btag[j] == tag {
                        j += 1;
                    }
                    if j - i > 1 && switch_query(p, &mut cur, &mut led, tag, recorder) {
                        let q = cur.as_ref().expect("switch_query returned true");
                        if !p.tally(q).aborted.load(Ordering::Acquire) {
                            p.handler(q).prepare_batch(&bvis[i..j]);
                        }
                    }
                    i = j;
                }
            }
            if R::ENABLED {
                recorder.observe(HistKind::BatchDrainSize, bvis.len() as u64);
            }
            for (v, tag) in bvis.drain(..).zip(btag.drain(..)) {
                if p.poisoned() {
                    // A worker panicked: drop everything and leave.
                    break 'outer;
                }
                if !switch_query(p, &mut cur, &mut led, tag, recorder) {
                    debug_assert!(false, "visitor for an unknown query");
                    continue;
                }
                let q = cur.as_ref().expect("switch_query returned true");
                let tally = p.tally(q);
                if tally.aborted.load(Ordering::Acquire) {
                    // This query is coming down: its visitors drain as
                    // uncounted drops so its pending counter still reaches
                    // zero.
                    led.dropped += 1;
                    led.debt += 1;
                    if led.debt >= DEBT_FLUSH {
                        settle(p, q, &mut led, recorder);
                    }
                    continue;
                }
                let mut ctx = PushCtx {
                    pending: &tally.pending,
                    worker_id: id,
                    num_workers: inboxes.len(),
                    pushed: 0,
                    local_pushes: 0,
                    sink: P::sink(
                        Lanes {
                            heap: &mut heap,
                            outbox: &mut outbox,
                        },
                        tag,
                    ),
                };
                let visit_start = if R::ENABLED {
                    Some(Instant::now())
                } else {
                    None
                };
                let outcome = p.handler(q).try_visit(v, &mut ctx);
                let (pushed, local_pushes) = (ctx.pushed, ctx.local_pushes);
                if let Some(t0) = visit_start {
                    recorder.observe(HistKind::ServiceTimeNs, t0.elapsed().as_nanos() as u64);
                }
                if local_pushes > 0 {
                    // Publish deferred-increment local pushes (see PushCtx).
                    // Done even on an aborting visit so the counter never
                    // under-counts while other workers may be settling it.
                    tally.pending.fetch_add(local_pushes, Ordering::Relaxed);
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
                    tally.abort(reason);
                }
                if led.debt >= DEBT_FLUSH {
                    settle(p, q, &mut led, recorder);
                }
                if !outbox.ready.is_empty() {
                    if R::ENABLED {
                        recorder.counter(Counter::OutboxFlushes, 1);
                    }
                    outbox.flush_ready(inboxes);
                } else if outbox.staged >= outbox_max_staged {
                    if R::ENABLED {
                        recorder.counter(Counter::OutboxFlushes, 1);
                    }
                    outbox.flush(inboxes);
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
        outbox.flush(inboxes);
        if let Some(q) = cur.take() {
            settle(p, &q, &mut led, recorder);
        }

        // Idle: adaptive spin before parking, with the policy's budget.
        let spin_budget = p.spin_budget();
        let mut spun: u32 = 0;
        while spun < spin_budget {
            if inbox.has_mail() {
                continue 'outer;
            }
            if p.stopping() {
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

        // Park until mail arrives or the policy says stop; any mail found
        // is drained into the heap before idle_wait returns.
        let idle = inbox.idle_wait(&mut heap, || p.stopping(), P::PARK, recorder);
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
