//! The service loop every worker runs.
//!
//! A worker owns a private bucket queue, drains its mailbox into it,
//! executes visitors in priority order and stages remote pushes in an
//! outbox. That loop is written once, here, as [`engine_worker`], and it
//! serves an engine (`crate::engine::EngineShared`): queues carry
//! `Tagged { v, qid }` items, and a one-entry query cache
//! (`switch_query`) resolves the tag to its query's handler and
//! termination counter. A persistent engine tags with a `u32` query id
//! and holds each query's handler in an `Arc`; a one-shot run is an
//! engine with one query, whose tag is `()` and whose handler is
//! borrowed. Either way workers park between queries and exit only at
//! engine teardown.
//!
//! Every query runs the same termination protocol: pushes to the
//! worker's own queue defer their pending increment to the end of the
//! visit, remote pushes increment before they can be delivered, and
//! completions accumulate in a per-worker [`Ledger`] whose debt is settled
//! every [`DEBT_FLUSH`] visitors and whenever the worker runs out of local
//! work. The counter may over-count, never under-count, so it reaches zero
//! only when no visitor of the query is queued or in flight (DESIGN.md
//! §14). A handler `Err` aborts its query: the first reason is kept, and
//! the query's remaining visitors drain out unexecuted, so the counter
//! still reaches zero. A handler panic poisons the whole pool.
//!
//! The ledger and [`WorkerTotals`] are also the only place the worker
//! counts events, relaxations included: a visit's handler returns whether
//! it expanded, and the ledger adds that up next to the executions. A
//! recorder is fed from them — the ledger forwards its deltas when it
//! settles, the totals forward each increment — so the per-visitor path
//! makes no recorder counter call (DESIGN.md §11).

use crate::bucket::BucketQueue;
use crate::config::VqConfig;
use crate::engine::{EngineShared, Handle, PoisonGuard, QueryShared, QueryTag, Tagged, PARK};
use crate::mailbox::{IdleOutcome, Mailbox};
use crate::queue::{route_of, RunStats};
use crate::visitor::{AbortReason, FallibleVisitHandler, Visitor};
use asyncgt_obs::{Counter, HistKind, Recorder};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
    /// Executions whose handler reported an expansion.
    pub(crate) relaxations: AtomicU64,
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
            relaxations: AtomicU64::new(0),
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

    /// The query's counts so far as run statistics; the caller fills in
    /// its own `elapsed`, `parks` and `inbox_batches`.
    pub(crate) fn stats(&self, num_threads: usize) -> RunStats {
        RunStats {
            visitors_executed: self.executed.load(Ordering::Acquire),
            relaxations: self.relaxations.load(Ordering::Acquire),
            visitors_pushed: self.pushed.load(Ordering::Acquire),
            local_pushes: self.local_pushes.load(Ordering::Acquire),
            visitors_dropped: self.dropped.load(Ordering::Acquire),
            num_threads,
            ..RunStats::default()
        }
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
    /// Executions that expanded; `executed - relaxed` are revisits.
    relaxed: u64,
    pushed: u64,
    local: u64,
    dropped: u64,
    /// Outbox deliveries; a worker-wide count that only the recorder
    /// reads, carried here so it is forwarded with the rest.
    flushes: u64,
}

const DEBT_FLUSH: u64 = 256;

impl Ledger {
    /// Flush into `t`, forwarding the same deltas to `rec` first. Returns
    /// whether this settle drove the query's pending counter to zero (its
    /// caller must then finish the query).
    fn settle<R: Recorder>(&mut self, t: &Tally, rec: &R) -> bool {
        if R::ENABLED {
            for (c, n) in [
                (Counter::VisitorsExecuted, self.executed),
                (Counter::Relaxations, self.relaxed),
                (Counter::Revisits, self.executed - self.relaxed),
                (Counter::VisitorsPushed, self.pushed),
                (Counter::LocalPushes, self.local),
                (Counter::RemotePushes, self.pushed - self.local),
                (Counter::OutboxFlushes, self.flushes),
            ] {
                if n > 0 {
                    rec.counter(c, n);
                }
            }
        }
        self.flushes = 0;
        if self.executed > 0 {
            t.executed.fetch_add(self.executed, Ordering::Relaxed);
            self.executed = 0;
        }
        if self.relaxed > 0 {
            t.relaxations.fetch_add(self.relaxed, Ordering::Relaxed);
            self.relaxed = 0;
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

/// Settle `led` into `q` and retire `q` if that drained its counter.
fn settle<V: Visitor, T: QueryTag, D: Handle<V>, R: Recorder>(
    p: &EngineShared<V, T, D>,
    q: &QueryShared<T, D>,
    led: &mut Ledger,
    recorder: &R,
) {
    if led.settle(&q.tally, recorder) {
        p.retire(q, recorder);
    }
}

/// Per-worker buffers of visitors addressed to other workers' queues.
///
/// Remote pushes are staged here and delivered in batches, amortizing the
/// inbox lock and (more importantly on oversubscribed hosts) the
/// wake-a-parked-thread syscall over many visitors instead of paying both
/// per push. It is shared by all of an engine's queries — batching is a
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
/// pushes fan out across many queues. The loop delivers the ready buffers
/// after every visit that filled one, so between visits no buffer holds
/// this many and the outbox stages fewer than this per destination.
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

/// Where a visit's pushes go: untagged items in a one-shot run, items
/// tagged with the executing query's id in a persistent engine.
pub(crate) enum Sink<'a, V: Visitor> {
    Bare(Lanes<'a, Tagged<V, ()>>),
    Tagged(Lanes<'a, Tagged<V, u32>>, u32),
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
            Sink::Bare(lanes) => lanes.put(Tagged { v, qid: () }, q, local),
            Sink::Tagged(lanes, qid) => lanes.put(Tagged { v, qid: *qid }, q, local),
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

/// Lifetime totals of one worker, summed over the pool at join: the one
/// place parks and inbox batches are counted. Each increment is forwarded
/// to the recorder as it happens, so a snapshot of a live engine sees it.
#[derive(Default)]
pub(crate) struct WorkerTotals {
    pub(crate) parks: u64,
    pub(crate) inbox_batches: u64,
}

impl WorkerTotals {
    /// Book one inbox drain that moved `moved` visitors.
    fn drained<R: Recorder>(&mut self, moved: u64, rec: &R) {
        if moved > 0 {
            self.inbox_batches += 1;
            if R::ENABLED {
                rec.counter(Counter::InboxBatches, 1);
            }
        }
    }

    /// Book one idle wait: its parks, wakes and drain.
    fn idled<R: Recorder>(&mut self, idle: &IdleOutcome, rec: &R) {
        self.parks += idle.parks;
        if R::ENABLED && idle.parks > 0 {
            rec.counter(Counter::Parks, idle.parks);
            if idle.wakes > 0 {
                rec.counter(Counter::Wakes, idle.wakes);
            }
        }
        self.drained(idle.drained, rec);
    }
}

/// Switch the worker's one-entry query cache to `tag`, settling the ledger
/// for the previous query first. Returns `false` if the tag is unknown
/// (impossible while its visitors hold pending units; guarded anyway).
/// Under the one-shot tag `()` only the first visitor after an idle
/// period looks its query up.
#[inline]
fn switch_query<V: Visitor, T: QueryTag, D: Handle<V>, R: Recorder>(
    p: &EngineShared<V, T, D>,
    cur: &mut Option<Arc<QueryShared<T, D>>>,
    led: &mut Ledger,
    tag: T,
    recorder: &R,
) -> bool {
    if cur.as_ref().map(|q| q.qid) != Some(tag) {
        if let Some(prev) = cur.take() {
            settle(p, &prev, led, recorder);
        }
        *cur = p.lookup(tag);
    }
    cur.is_some()
}

/// The worker service loop (see the module docs): the only one.
pub(crate) fn engine_worker<V: Visitor, T: QueryTag, D: Handle<V>, R: Recorder>(
    p: &EngineShared<V, T, D>,
    id: usize,
    cfg: &VqConfig,
    recorder: &R,
) -> WorkerTotals {
    let inboxes = &p.inboxes[..];
    let inbox = &inboxes[id];
    // Buckets always semi-sort: the paper's §IV-C order, which raises
    // storage access locality for semi-external graphs.
    let mut heap: BucketQueue<Tagged<V, T>> = BucketQueue::new(cfg.priority_shift, true);
    let mut outbox: Outbox<Tagged<V, T>> = Outbox::new(inboxes.len());
    let mut totals = WorkerTotals::default();
    let poison_guard = PoisonGuard(p);
    if R::ENABLED {
        recorder.register_worker(id);
        recorder.timeline("worker_start");
    }

    // Visitors drained for the current service round, split into parallel
    // visitor/tag columns so `prepare_batch` can see contiguous `&[V]`
    // runs; reused across rounds so the hot path does not allocate.
    let io_batch = cfg.io_batch.max(1);
    let mut bvis: Vec<V> = Vec::with_capacity(io_batch);
    let mut btag: Vec<T> = Vec::with_capacity(io_batch);

    // One-entry cache of the query the worker is currently executing, with
    // its unsettled accounting. Interleaved streams switch rarely (the
    // heap's semi-sort groups same-query visitors), so the query lookup
    // stays off the per-visitor path.
    let mut cur: Option<Arc<QueryShared<T, D>>> = None;
    let mut led = Ledger::default();

    'outer: loop {
        // Merge any mail into the private heap so priorities interleave.
        if inbox.has_mail() {
            totals.drained(inbox.drain(&mut heap, recorder), recorder);
        }

        // Drain up to `io_batch` visitors for this service round.
        while bvis.len() < io_batch {
            match heap.pop() {
                Some(Tagged { v, qid }) => {
                    bvis.push(v);
                    btag.push(qid);
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
                        if !q.tally.aborted.load(Ordering::Acquire) {
                            q.handler.prepare_batch(&bvis[i..j]);
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
                let tally = &q.tally;
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
                    sink: T::sink(
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
                let outcome = q.handler.try_visit(v, &mut ctx);
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
                led.executed += 1;
                led.pushed += pushed;
                led.local += local_pushes;
                led.debt += 1;
                match outcome {
                    Ok(expanded) => led.relaxed += expanded as u64,
                    // Abort *this query only*; the worker keeps serving
                    // siblings, and this query's queued visitors drain out
                    // as drops above.
                    Err(reason) => tally.abort(reason),
                }
                if led.debt >= DEBT_FLUSH {
                    settle(p, q, &mut led, recorder);
                }
                if !outbox.ready.is_empty() {
                    led.flushes += 1;
                    outbox.flush_ready(inboxes);
                }
            }
            continue;
        }

        // Out of local work: deliver staged mail (other workers may be
        // waiting on it), then settle the ledger so the current query's
        // counter is exact before this worker goes quiet.
        if outbox.staged > 0 {
            led.flushes += 1;
        }
        outbox.flush(inboxes);
        if let Some(q) = cur.take() {
            settle(p, &q, &mut led, recorder);
        }

        // Idle: adaptive spin before parking (no spin while no query is
        // live).
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

        // Park until mail arrives or the engine stops; any mail found is
        // drained into the heap before idle_wait returns.
        let idle = inbox.idle_wait(&mut heap, || p.stopping(), PARK, recorder);
        totals.idled(&idle, recorder);
        if idle.exit {
            break 'outer;
        }
    }

    if R::ENABLED {
        recorder.timeline("worker_exit");
    }
    drop(poison_guard);
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncgt_obs::NoopRecorder;

    #[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
    struct Hop(u64);
    impl Visitor for Hop {
        fn target(&self) -> u64 {
            self.0
        }
    }

    /// Under the worker loop's rule (deliver the ready buffers after any
    /// visit that filled one), no buffer holds `FLUSH_PER_DEST` visitors
    /// between visits, so an outbox never stages `FLUSH_PER_DEST` per
    /// destination in total, however skewed the pushes are.
    #[test]
    fn flushing_ready_buffers_bounds_what_an_outbox_stages() {
        const QUEUES: usize = 8;
        let inboxes: Vec<Mailbox<Hop>> = (0..QUEUES).map(|_| Mailbox::new()).collect();
        let mut outbox = Outbox::new(QUEUES);
        let mut pushed = 0u64;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for visit in 0..4000u64 {
            // Every 16th visit is a hub fanning out to hundreds of
            // visitors; the rest push a few. Destinations are skewed:
            // queue q draws about 2^-(q+1) of the pushes.
            let fanout = if visit % 16 == 0 {
                200 + visit % 400
            } else {
                visit % 5
            };
            for _ in 0..fanout {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let q = (x.trailing_zeros() as usize).min(QUEUES - 1);
                outbox.stage(q, Hop(q as u64));
                pushed += 1;
            }
            if !outbox.ready.is_empty() {
                outbox.flush_ready(&inboxes);
            }
            assert!(outbox.buffers.iter().all(|b| b.len() < FLUSH_PER_DEST));
            let held: usize = outbox.buffers.iter().map(Vec::len).sum();
            assert_eq!(outbox.staged, held as u64);
            assert!(outbox.staged < (FLUSH_PER_DEST * QUEUES) as u64);
        }
        let mut heap = BucketQueue::new(0, true);
        let delivered: u64 = inboxes
            .iter()
            .map(|mb| mb.drain(&mut heap, &NoopRecorder))
            .sum();
        assert!(delivered > 0);
        assert_eq!(delivered + outbox.staged, pushed, "no visitor is lost");
    }
}
