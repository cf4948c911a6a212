//! Per-worker mailboxes: how remote workers deliver visitors to a queue
//! owner, and how an idle owner parks until mail arrives.
//!
//! Each worker owns one `Mutex<Vec<V>>` inbox with a condvar for parking —
//! the paper's locked queue per thread (§III-A). Hashing visitors across
//! one queue per thread, thread oversubscription and the outbox's batched
//! flushes keep the lock cold: a remote delivery takes the destination's
//! lock once per flushed batch, not once per visitor. DESIGN.md §14
//! records the measurements behind keeping this single design.
//!
//! # No lost wake-up
//!
//! The owner checks for mail and for its exit condition while holding the
//! mail lock, then waits on the condvar, which releases that lock
//! atomically. Every event that can end the wait also takes the lock:
//! a delivery appends under it, and a teardown [`Mailbox::wake`] acquires
//! it before notifying. So each such event is ordered either before the
//! owner's check (which then sees it) or after the owner is already
//! waiting (which the notify then wakes). The park timeout is a backstop
//! only; no correctness argument depends on it.
//!
//! # Termination
//!
//! A query's pending counter is incremented *before* a visitor is
//! delivered (in `PushCtx::push`) and decremented only after its visit
//! returns, so the mailbox can only make `pending` an over-count:
//! termination may be delayed, never detected early.

use crate::bucket::BucketQueue;
use crate::visitor::Visitor;
use asyncgt_obs::{Gauge, HistKind, Recorder};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Outcome of one [`Mailbox::idle_wait`] call.
#[derive(Default)]
pub(crate) struct IdleOutcome {
    /// Visitors drained into the heap (0 when exiting).
    pub drained: u64,
    /// Times the owner parked while waiting.
    pub parks: u64,
    /// Parks that ended by a notify rather than the timeout.
    pub wakes: u64,
    /// The exit condition (termination/halt) became true.
    pub exit: bool,
}

/// A worker's shared mailbox. Remote workers [`deliver`](Self::deliver);
/// the owner [`drain`](Self::drain)s and, when out of work,
/// [`idle_wait`](Self::idle_wait)s.
///
/// The workers' mailboxes sit side by side in one `Vec`. Unpadded, two
/// fit in one cache line, and a producer locking one inbox invalidates
/// the line a neighbouring owner polls `has_mail` on after every service
/// round. `repr(C)` keeps the hot fields first and `_pad` last, so
/// neighbours' hot fields are more than a cache line apart. The padding
/// is by size, not alignment: in perfbench on 2 cores an over-aligned
/// `Mailbox` raised `sem-bfs` peak RSS by about 17%.
#[repr(C)]
pub(crate) struct Mailbox<V> {
    mail: Mutex<Vec<V>>,
    cv: Condvar,
    /// Under the mail lock, exactly `!mail.is_empty()`. Read without the
    /// lock it lets the owner skip locking an empty inbox, and its
    /// false→true edge names the one producer that owes the owner a wake.
    has_mail: AtomicBool,
    _pad: [u8; 96],
}

impl<V: Visitor> Mailbox<V> {
    pub(crate) fn new() -> Self {
        Mailbox {
            mail: Mutex::new(Vec::new()),
            cv: Condvar::new(),
            has_mail: AtomicBool::new(false),
            _pad: [0; 96],
        }
    }

    /// Cheap may-have-mail hint; false negatives are impossible, false
    /// positives merely cost a drain that moves nothing.
    #[inline]
    pub(crate) fn has_mail(&self) -> bool {
        self.has_mail.load(Ordering::Acquire)
    }

    /// Deliver a whole buffer of visitors addressed to this mailbox's
    /// owner, waking it iff the mailbox was empty. The buffer is drained
    /// but keeps its capacity.
    pub(crate) fn deliver(&self, buf: &mut Vec<V>) {
        if buf.is_empty() {
            return;
        }
        let newly_nonempty = {
            let mut mail = self.mail.lock();
            mail.append(buf);
            !self.has_mail.swap(true, Ordering::AcqRel)
        };
        if newly_nonempty {
            self.cv.notify_one();
        }
    }

    /// Owner: move all queued mail into the private heap. Returns the
    /// number of visitors moved.
    pub(crate) fn drain<R: Recorder>(&self, heap: &mut BucketQueue<V>, rec: &R) -> u64 {
        let mut mail = self.mail.lock();
        self.has_mail.store(false, Ordering::Release);
        let moved = mail.len() as u64;
        heap.extend(mail.drain(..));
        drop(mail);
        record_drain(heap, moved, rec);
        moved
    }

    /// Teardown wake (termination, poison, abort): rouse a parked owner
    /// regardless of mailbox contents. Taking the mail lock orders this
    /// wake against the owner's exit check (see the module docs); without
    /// it a wake landing between that check and the wait would be lost
    /// and the owner would sleep out its whole park timeout.
    pub(crate) fn wake(&self) {
        let _mail = self.mail.lock();
        self.cv.notify_all();
    }

    /// Owner out of local work: block until mail arrives (drained into
    /// `heap` before returning) or `exit` turns true. `exit` is checked
    /// under the mail lock before every park; each park is bounded by
    /// `timeout` as a backstop.
    pub(crate) fn idle_wait<R: Recorder>(
        &self,
        heap: &mut BucketQueue<V>,
        exit: impl Fn() -> bool,
        timeout: Duration,
        rec: &R,
    ) -> IdleOutcome {
        let mut out = IdleOutcome::default();
        let mut mail = self.mail.lock();
        loop {
            if !mail.is_empty() {
                self.has_mail.store(false, Ordering::Release);
                out.drained = mail.len() as u64;
                heap.extend(mail.drain(..));
                drop(mail);
                record_drain(heap, out.drained, rec);
                return out;
            }
            if exit() {
                out.exit = true;
                return out;
            }
            out.parks += 1;
            if !self.cv.wait_for(&mut mail, timeout).timed_out() {
                out.wakes += 1;
            }
        }
    }
}

/// Record the batch-size and inbox-depth histograms of a non-empty drain
/// (the worker counts the drain itself).
fn record_drain<V: Visitor, R: Recorder>(heap: &BucketQueue<V>, moved: u64, rec: &R) {
    if R::ENABLED && moved > 0 {
        rec.observe(HistKind::InboxBatchSize, moved);
        let depth = heap.len() as u64;
        rec.observe(HistKind::QueueDepth, depth);
        rec.gauge_max(Gauge::QueueDepthHwm, depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncgt_obs::NoopRecorder;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Instant;

    #[derive(PartialEq, Eq, PartialOrd, Ord, Debug, Clone)]
    struct T(u64);
    impl Visitor for T {
        fn target(&self) -> u64 {
            self.0
        }
    }

    fn heap() -> BucketQueue<T> {
        BucketQueue::new(0, true)
    }

    #[test]
    fn lock_mailbox_round_trips_too() {
        let mb: Mailbox<T> = Mailbox::new();
        assert!(!mb.has_mail());
        let mut buf = vec![T(3), T(1), T(2)];
        mb.deliver(&mut buf);
        mb.deliver(&mut Vec::new());
        assert!(buf.is_empty());
        assert!(mb.has_mail());
        let mut h = heap();
        assert_eq!(mb.drain(&mut h, &NoopRecorder), 3);
        assert!(!mb.has_mail());
        assert_eq!(h.pop(), Some(T(1)));
        assert_eq!(h.pop(), Some(T(2)));
        assert_eq!(h.pop(), Some(T(3)));
        assert_eq!(h.pop(), None);
        assert_eq!(mb.drain(&mut h, &NoopRecorder), 0, "second drain is empty");
    }

    /// A park bound long enough that a lost wake shows up as a round that
    /// sleeps it out, far above anything a prompt wake takes.
    const BACKSTOP: Duration = Duration::from_secs(10);

    #[test]
    fn producers_wake_parked_owner() {
        // One parked owner, many producers delivering concurrently; the
        // owner must observe every visitor without a lost wakeup.
        let mb: Arc<Mailbox<T>> = Arc::new(Mailbox::new());
        let total = 64 * 100u64;
        let seen = Arc::new(AtomicUsize::new(0));
        let t = Instant::now();
        std::thread::scope(|s| {
            let owner_mb = mb.clone();
            let owner_seen = seen.clone();
            let owner = s.spawn(move || {
                let mut h = heap();
                let mut got = 0u64;
                while got < total {
                    let out = owner_mb.idle_wait(&mut h, || false, BACKSTOP, &NoopRecorder);
                    got += out.drained;
                    while h.pop().is_some() {
                        owner_seen.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            for p in 0..64u64 {
                let mb = mb.clone();
                s.spawn(move || {
                    for i in 0..100u64 {
                        let mut buf = vec![T(p * 1000 + i)];
                        mb.deliver(&mut buf);
                    }
                });
            }
            owner.join().unwrap();
        });
        assert_eq!(seen.load(Ordering::Relaxed) as u64, total);
        assert!(
            t.elapsed() < BACKSTOP / 2,
            "lost wakeup: took {:?}",
            t.elapsed()
        );
    }

    #[test]
    fn teardown_wake_between_exit_check_and_wait_is_not_lost() {
        // The owner's exit check reports "keep waiting" and then stalls
        // before the wait, and the waker sets the flag and wakes inside
        // exactly that window. Unless the wake is ordered after the wait
        // begins, the owner sleeps out the whole park bound.
        let mb: Mailbox<T> = Mailbox::new();
        let stop = AtomicBool::new(false);
        let checked = AtomicBool::new(false);
        let t = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                let exit = || {
                    let stopped = stop.load(Ordering::Acquire);
                    if !stopped && !checked.swap(true, Ordering::AcqRel) {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    stopped
                };
                let out = mb.idle_wait(&mut heap(), exit, BACKSTOP, &NoopRecorder);
                assert!(out.exit);
            });
            while !checked.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Release);
            mb.wake();
        });
        assert!(
            t.elapsed() < BACKSTOP / 2,
            "lost teardown wake: took {:?}",
            t.elapsed()
        );
    }
}
