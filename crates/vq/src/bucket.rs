//! Calendar (bucket) priority queue for visitors.
//!
//! The paper requires each worker's queue to be *prioritized* (shortest
//! tentative path first, smallest component id first) but the traversal is
//! label-correcting, so correctness never depends on exact ordering — only
//! work efficiency does. That freedom admits a queue with **O(1)**
//! push/pop and sequential memory traffic where a comparison heap pays
//! `O(log n)` scattered accesses per operation on multi-megabyte
//! frontiers:
//!
//! * visitors are binned by **priority class** `priority() >> shift` into
//!   a ring of FIFO buckets starting at the current minimum class;
//! * pop drains the lowest non-empty bucket; classes beyond the ring
//!   horizon overflow into a small 4-ary heap and re-enter the ring as it
//!   advances;
//! * optionally each bucket is **sorted before draining** — this yields
//!   exactly the paper's §IV-C semi-external ordering: primary key the
//!   priority, secondary key the vertex id, "semi-sorting" storage
//!   accesses for locality.
//!
//! `shift = 0` with unit weights makes this a textbook Dial queue (BFS
//! levels); larger shifts give delta-stepping-like coarse buckets for wide
//! weight ranges.

use crate::dary::DaryHeap;
use crate::visitor::Visitor;

/// Number of bucket classes held in the ring; classes at or beyond
/// `base + RING` overflow to the heap.
const RING: usize = 1024;

/// A bucketed priority queue over visitors (see module docs).
pub struct BucketQueue<V: Visitor> {
    /// Ring of FIFO buckets; `buckets[head]` holds class `base`.
    buckets: Vec<Vec<V>>,
    head: usize,
    /// Priority class of the bucket at `head`.
    base: u64,
    /// Items currently in ring buckets.
    ring_len: usize,
    /// Drain staging: items of the class being consumed, sorted descending
    /// when `sort_buckets` is set, popped from the back.
    current: Vec<V>,
    /// Far-future items (class ≥ base + RING).
    overflow: DaryHeap<V>,
    /// Right-shift applied to `Visitor::priority()` to form classes.
    shift: u32,
    /// Sort each bucket before draining (the paper's SEM semi-sort).
    sort_buckets: bool,
}

impl<V: Visitor> BucketQueue<V> {
    /// Create a queue with the given class `shift` and drain-sort policy.
    pub fn new(shift: u32, sort_buckets: bool) -> Self {
        BucketQueue {
            buckets: (0..RING).map(|_| Vec::new()).collect(),
            head: 0,
            base: 0,
            ring_len: 0,
            current: Vec::new(),
            overflow: DaryHeap::new(),
            shift,
            sort_buckets,
        }
    }

    /// Total queued visitors.
    pub fn len(&self) -> usize {
        self.ring_len + self.current.len() + self.overflow.len()
    }

    /// Whether no visitor is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn class_of(&self, v: &V) -> u64 {
        v.priority() >> self.shift
    }

    /// Insert a visitor.
    #[inline]
    pub fn push(&mut self, v: V) {
        let class = self.class_of(&v);
        // An empty queue has no ordering to preserve: rebase the ring to
        // the incoming class instead of clamping it to wherever the last
        // drain left `base`. This matters for a persistent engine worker,
        // whose queue repeatedly empties between queries — without the
        // rebase, a new query's visitors (whose priorities restart near 0)
        // would all clamp into one bucket at the stale base and lose
        // prioritization entirely.
        if self.is_empty() && class < self.base {
            self.base = class;
            self.head = 0;
        }
        // A class below `base` in a non-empty queue means a stale-but-better
        // visitor arrived after the ring advanced; it joins the current
        // class (it would be the next thing popped anyway — ordering within
        // a class is free).
        let class = class.max(self.base);
        let ahead = class - self.base;
        if (ahead as usize) < RING {
            let idx = (self.head + ahead as usize) % RING;
            self.buckets[idx].push(v);
            self.ring_len += 1;
        } else {
            self.overflow.push(v);
        }
    }

    /// Remove the visitor with (approximately) the smallest priority:
    /// exact at bucket-class granularity, FIFO or sorted within a class.
    #[inline]
    pub fn pop(&mut self) -> Option<V> {
        loop {
            if let Some(v) = self.current.pop() {
                return Some(v);
            }
            if self.ring_len == 0 && self.overflow.is_empty() {
                return None;
            }
            self.refill();
        }
    }

    /// Advance to the next non-empty class and stage it for draining.
    fn refill(&mut self) {
        // Jump straight to the overflow's class when the ring is empty.
        if self.ring_len == 0 {
            let min_class = self
                .overflow
                .peek()
                .map(|v| self.class_of(v))
                .expect("refill called with an empty queue");
            self.base = min_class;
            self.head = 0;
            self.drain_overflow_into_ring();
            debug_assert!(self.ring_len > 0);
        }
        // Walk the ring to the first non-empty bucket.
        while self.buckets[self.head].is_empty() {
            self.head = (self.head + 1) % RING;
            self.base += 1;
            self.maybe_pull_overflow();
        }
        // Take the bucket's buffer and free the spent one, so the ring
        // holds no capacity beyond its live buckets: a long-lived engine
        // worker's memory must not grow with the classes it has served.
        self.current = std::mem::take(&mut self.buckets[self.head]);
        self.ring_len -= self.current.len();
        if self.sort_buckets {
            // Descending so pops from the back come out ascending —
            // (priority, vertex-id) order, the paper's semi-sort.
            self.current.sort_unstable_by(|a, b| b.cmp(a));
        }
    }

    /// After advancing `base`, overflow items may now fit the ring.
    #[inline]
    fn maybe_pull_overflow(&mut self) {
        while let Some(v) = self.overflow.peek() {
            let class = self.class_of(v);
            if class >= self.base + RING as u64 {
                break;
            }
            let v = self.overflow.pop().unwrap();
            let idx = (self.head + (class - self.base) as usize) % RING;
            self.buckets[idx].push(v);
            self.ring_len += 1;
        }
    }

    /// Move every overflow item whose class now fits into the ring.
    fn drain_overflow_into_ring(&mut self) {
        self.maybe_pull_overflow();
    }
}

impl<V: Visitor> Extend<V> for BucketQueue<V> {
    fn extend<I: IntoIterator<Item = V>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct P(u64, u64); // (priority, vertex)
    impl Visitor for P {
        fn target(&self) -> u64 {
            self.1
        }
        fn priority(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn empty_queue() {
        let mut q: BucketQueue<P> = BucketQueue::new(0, false);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pops_by_class_order() {
        let mut q = BucketQueue::new(0, true);
        for v in [P(5, 0), P(1, 1), P(3, 2), P(1, 0), P(0, 9)] {
            q.push(v);
        }
        let mut out = Vec::new();
        while let Some(v) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![P(0, 9), P(1, 0), P(1, 1), P(3, 2), P(5, 0)]);
    }

    #[test]
    fn unsorted_buckets_still_respect_class_order() {
        let mut q = BucketQueue::new(0, false);
        for v in [P(2, 0), P(0, 1), P(2, 1), P(0, 0), P(1, 0)] {
            q.push(v);
        }
        let mut classes = Vec::new();
        while let Some(v) = q.pop() {
            classes.push(v.0);
        }
        assert_eq!(classes, vec![0, 0, 1, 2, 2]);
    }

    #[test]
    fn shift_coarsens_classes() {
        let mut q = BucketQueue::new(4, true); // classes of width 16
        q.push(P(17, 0));
        q.push(P(3, 1));
        q.push(P(14, 2));
        // 3 and 14 share class 0 and come out in (priority, vertex) order.
        assert_eq!(q.pop(), Some(P(3, 1)));
        assert_eq!(q.pop(), Some(P(14, 2)));
        assert_eq!(q.pop(), Some(P(17, 0)));
    }

    #[test]
    fn overflow_beyond_ring_horizon() {
        let mut q = BucketQueue::new(0, true);
        q.push(P(0, 0));
        q.push(P(5_000_000, 1)); // far beyond RING classes
        q.push(P(2_000, 2)); // beyond RING, below the other
        assert_eq!(q.pop(), Some(P(0, 0)));
        assert_eq!(q.pop(), Some(P(2_000, 2)));
        assert_eq!(q.pop(), Some(P(5_000_000, 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn stale_lower_priority_joins_current_class() {
        let mut q = BucketQueue::new(0, false);
        q.push(P(10, 0));
        assert_eq!(q.pop(), Some(P(10, 0))); // base advanced to 10
        q.push(P(3, 1)); // below base: clamped, not lost
        assert_eq!(q.pop(), Some(P(3, 1)));
    }

    #[test]
    fn empty_queue_rebases_instead_of_clamping() {
        // A drained queue whose base advanced far (end of one query) must
        // restore real prioritization for fresh low-priority pushes (start
        // of the next query), not clamp them all into one class.
        let mut q = BucketQueue::new(0, false);
        q.push(P(2000, 0));
        assert_eq!(q.pop(), Some(P(2000, 0))); // base is now ~2000, queue empty
        q.push(P(100, 1));
        q.push(P(300, 2));
        q.push(P(120, 3));
        // With clamping these would all share one class and pop FIFO
        // (100, 300, 120); with the rebase they pop by class.
        assert_eq!(q.pop(), Some(P(100, 1)));
        assert_eq!(q.pop(), Some(P(120, 3)));
        assert_eq!(q.pop(), Some(P(300, 2)));
    }

    #[test]
    fn interleaved_push_pop_monotone_classes() {
        let mut q = BucketQueue::new(0, false);
        q.push(P(1, 0));
        assert_eq!(q.pop().unwrap().0, 1);
        q.push(P(2, 0));
        q.push(P(4, 0));
        assert_eq!(q.pop().unwrap().0, 2);
        q.push(P(3, 0));
        assert_eq!(q.pop().unwrap().0, 3);
        assert_eq!(q.pop().unwrap().0, 4);
    }

    #[test]
    fn len_tracks_all_regions() {
        let mut q = BucketQueue::new(0, false);
        q.push(P(0, 0));
        q.push(P(1, 0));
        q.push(P(1_000_000, 0)); // overflow
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn drained_classes_leave_no_spent_capacity_in_the_ring() {
        // Many visitors in each of several ring-widths of classes: once
        // drained, no ring slot may keep a spent buffer's capacity.
        let mut q = BucketQueue::new(0, true);
        for class in 0..(3 * RING as u64) {
            for vertex in 0..64 {
                q.push(P(class, vertex));
            }
            while q.pop().is_some() {}
        }
        let kept: usize = q.buckets.iter().map(Vec::capacity).sum();
        assert_eq!(kept, 0, "ring keeps {kept} slots of spent capacity");
    }

    #[test]
    fn randomized_against_sorted_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..20 {
            let mut q = BucketQueue::new(2, true);
            let mut reference: Vec<P> = Vec::new();
            for _ in 0..500 {
                let v = P(rng.gen_range(0..10_000), rng.gen_range(0..100));
                q.push(v);
                reference.push(v);
            }
            // With sorting, full drains must come out in exact
            // (class, priority, vertex) order; with shift=2 the class order
            // and priority order agree up to class granularity, so compare
            // classes only.
            reference.sort_unstable();
            let popped: Vec<P> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(popped.len(), reference.len());
            for (a, b) in popped.iter().zip(&reference) {
                assert_eq!(a.0 >> 2, b.0 >> 2, "class order violated");
            }
        }
    }
}
