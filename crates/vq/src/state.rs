//! Shared vertex-state arrays (the paper's `dist_array`, `parent_array`,
//! `ccid_array`).
//!
//! Every access is a relaxed atomic; there are no per-vertex locks. Label
//! arrays (`dist`, `ccid`) are lowered by any pusher through
//! [`AtomicStateArray::fetch_min`], which claims the label before a visitor
//! is queued. Other slots (`parent`) are written with
//! [`AtomicStateArray::set`] only by the worker owning the vertex (the
//! hash-routing guarantee). Cross-thread visibility of the *final* values
//! is established by the run's termination synchronization (the workers'
//! release-decrements of the pending counter and the thread joins), not by
//! these accesses.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A fixed-size array of `u64` vertex state, safely shared across workers.
pub struct AtomicStateArray {
    data: Box<[AtomicU64]>,
}

impl AtomicStateArray {
    /// Create an array of `len` entries, all initialized to `init`
    /// (traversals use `u64::MAX` as the paper's `∞`).
    pub fn new(len: usize, init: u64) -> Self {
        let mut v = Vec::with_capacity(len);
        v.resize_with(len, || AtomicU64::new(init));
        AtomicStateArray {
            data: v.into_boxed_slice(),
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Relaxed load of entry `i`.
    #[inline]
    pub fn get(&self, i: u64) -> u64 {
        self.data[i as usize].load(Ordering::Relaxed)
    }

    /// Relaxed store to entry `i`. Callers must hold the vertex-ownership
    /// guarantee (be the worker that owns vertex `i`) for the value to be
    /// meaningful; racing writers would not be UB, just lost updates.
    #[inline]
    pub fn set(&self, i: u64, value: u64) {
        self.data[i as usize].store(value, Ordering::Relaxed);
    }

    /// Atomically lower entry `i` to `value` if `value` is smaller;
    /// returns whether the entry was updated. Traversals claim a label with
    /// it from any worker before queuing a visitor. While only `fetch_min`
    /// writes an entry, each value it takes is installed by exactly one
    /// call that returned `true`, and a later load ordered after that call
    /// sees `value` or less.
    ///
    /// A relaxed load comes first and the locked read-modify-write is
    /// issued only if `value` is below it. Labels only fall, so a claim the
    /// load rejects would have failed as an RMW too. Most claims fail, and
    /// a failing claim leaves the label's cache line shared instead of
    /// taking it exclusive.
    #[inline]
    pub fn fetch_min(&self, i: u64, value: u64) -> bool {
        let a = &self.data[i as usize];
        value < a.load(Ordering::Relaxed) && a.fetch_min(value, Ordering::Relaxed) > value
    }

    /// Reset every entry to `value` (relaxed stores). Used by
    /// [`StatePool`] to recycle arrays between queries without
    /// reallocating.
    pub fn fill(&self, value: u64) {
        for a in self.data.iter() {
            a.store(value, Ordering::Relaxed);
        }
    }

    /// Copy the contents into a plain vector (after a run completes).
    pub fn to_vec(&self) -> Vec<u64> {
        self.data
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    /// Turn the array into a plain vector without copying: `AtomicU64` and
    /// `u64` share a layout, so the collect reuses the allocation in place.
    pub fn into_vec(self) -> Vec<u64> {
        Vec::from(self.data)
            .into_iter()
            .map(AtomicU64::into_inner)
            .collect()
    }
}

/// A pool of same-length [`AtomicStateArray`]s leased to concurrent
/// queries.
///
/// Each query executing on a persistent [`Engine`](crate::engine::Engine)
/// needs its own label array (concurrent BFS/SSSP/CC over one shared graph
/// must never share `dist`/`ccid` state), but allocating and zeroing a
/// `|V|`-sized array per query is exactly the per-request cost the engine
/// exists to amortize. The pool recycles arrays:
/// [`lease_arc`](Self::lease_arc) pops a free one (re-`fill`ed to the
/// requested init value) or allocates on first use, and dropping the
/// [`OwnedStateLease`] returns it.
pub struct StatePool {
    len: usize,
    allocated: AtomicUsize,
    free: parking_lot::Mutex<Vec<AtomicStateArray>>,
}

impl StatePool {
    /// Pool of arrays with `len` entries each (one per vertex).
    pub fn new(len: usize) -> Self {
        StatePool {
            len,
            allocated: AtomicUsize::new(0),
            free: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Entry count of every array this pool hands out.
    pub fn array_len(&self) -> usize {
        self.len
    }

    /// Arrays currently sitting idle in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().len()
    }

    /// Total arrays ever allocated by this pool (leased-out plus idle).
    /// A steady-state engine reusing leases keeps this at its concurrency
    /// high-water mark instead of growing per query.
    pub fn allocated(&self) -> usize {
        self.allocated.load(Ordering::Relaxed)
    }

    fn take(&self, init: u64) -> AtomicStateArray {
        match self.free.lock().pop() {
            Some(arr) => {
                arr.fill(init);
                arr
            }
            None => {
                self.allocated.fetch_add(1, Ordering::Relaxed);
                AtomicStateArray::new(self.len, init)
            }
        }
    }

    /// Lease an array with every entry set to `init`. Reuses a returned
    /// array when one is free, allocating otherwise — so a steady-state
    /// engine running ≤ N concurrent queries settles at N allocations
    /// total. The lease keeps the pool alive through its own `Arc`, so it
    /// can be stored in handlers whose lifetime is not tied to the pool's
    /// stack frame (e.g. per-query jobs submitted to a persistent engine).
    pub fn lease_arc(self: &Arc<Self>, init: u64) -> OwnedStateLease {
        OwnedStateLease {
            arr: Some(self.take(init)),
            pool: Arc::clone(self),
        }
    }
}

impl std::fmt::Debug for StatePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatePool")
            .field("array_len", &self.len)
            .field("idle", &self.idle())
            .finish()
    }
}

/// An [`AtomicStateArray`] borrowed from an `Arc<StatePool>` (see
/// [`StatePool::lease_arc`]); returns itself to the pool on drop.
/// Dereferences to the array.
pub struct OwnedStateLease {
    pool: Arc<StatePool>,
    arr: Option<AtomicStateArray>,
}

impl std::ops::Deref for OwnedStateLease {
    type Target = AtomicStateArray;
    fn deref(&self) -> &AtomicStateArray {
        self.arr.as_ref().expect("leased array present until drop")
    }
}

impl Drop for OwnedStateLease {
    fn drop(&mut self) {
        if let Some(arr) = self.arr.take() {
            self.pool.free.lock().push(arr);
        }
    }
}

impl std::fmt::Debug for OwnedStateLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OwnedStateLease")
            .field("len", &self.len())
            .finish()
    }
}

impl std::fmt::Debug for AtomicStateArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicStateArray")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_and_rw() {
        let a = AtomicStateArray::new(4, u64::MAX);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        assert_eq!(a.get(2), u64::MAX);
        a.set(2, 7);
        assert_eq!(a.get(2), 7);
        assert_eq!(a.to_vec(), vec![u64::MAX, u64::MAX, 7, u64::MAX]);
    }

    #[test]
    fn fetch_min_only_lowers() {
        let a = AtomicStateArray::new(1, 10);
        assert!(a.fetch_min(0, 5));
        assert_eq!(a.get(0), 5);
        assert!(!a.fetch_min(0, 9));
        assert_eq!(a.get(0), 5);
        assert!(!a.fetch_min(0, 5));
    }

    #[test]
    fn fill_resets_every_entry() {
        let a = AtomicStateArray::new(3, 0);
        a.set(1, 42);
        a.fill(u64::MAX);
        assert_eq!(a.to_vec(), vec![u64::MAX; 3]);
    }

    #[test]
    fn pool_recycles_arrays_and_reinitializes() {
        let pool = Arc::new(StatePool::new(8));
        assert_eq!(pool.idle(), 0);
        {
            let a = pool.lease_arc(u64::MAX);
            assert_eq!(a.len(), 8);
            assert_eq!(a.get(3), u64::MAX);
            a.set(3, 7);
        }
        // Returned on drop, and the dirty entry is re-initialized on the
        // next lease.
        assert_eq!(pool.idle(), 1);
        let b = pool.lease_arc(0);
        assert_eq!(pool.idle(), 0);
        assert_eq!(b.get(3), 0);
    }

    #[test]
    fn pool_allocates_when_all_arrays_are_out() {
        let pool = Arc::new(StatePool::new(4));
        let a = pool.lease_arc(1);
        let b = pool.lease_arc(2);
        assert_eq!(a.get(0), 1);
        assert_eq!(b.get(0), 2);
        drop(a);
        drop(b);
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn arc_lease_outlives_the_borrowing_frame_and_counts_allocations() {
        let pool = Arc::new(StatePool::new(4));
        let lease = {
            // The lease escapes the scope that held the `&Arc` borrow.
            let p = &pool;
            p.lease_arc(7)
        };
        assert_eq!(lease.get(3), 7);
        assert_eq!(pool.allocated(), 1);
        drop(lease);
        assert_eq!(pool.idle(), 1);
        // Recycled, not reallocated.
        let again = pool.lease_arc(0);
        assert_eq!(pool.allocated(), 1);
        assert_eq!(again.get(3), 0);
    }

    #[test]
    fn into_vec_keeps_the_allocation_and_the_values() {
        let a = AtomicStateArray::new(5, u64::MAX);
        a.set(1, 3);
        assert!(a.fetch_min(4, 9));
        let copied = a.to_vec();
        let ptr = a.data.as_ptr() as *const u64;
        let moved = a.into_vec();
        assert_eq!(moved.as_ptr(), ptr);
        assert_eq!(moved, copied);
    }

    #[test]
    fn racing_claims_install_each_value_once_in_falling_order() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        const ENTRIES: u64 = 3;
        const VALUES: u64 = 20_000;
        let a = AtomicStateArray::new(ENTRIES as usize, u64::MAX);
        let racing = AtomicBool::new(true);
        let start = Barrier::new(5);
        let (wins, seen) = std::thread::scope(|s| {
            // Four claimers walk the same values down by different strides,
            // so they overlap on most values and race on every entry.
            let claimers: Vec<_> = (1..=4usize)
                .map(|stride| {
                    let (a, start) = (&a, &start);
                    s.spawn(move || {
                        let mut won = Vec::new();
                        start.wait();
                        for k in (0..VALUES).rev().step_by(stride) {
                            for i in 0..ENTRIES {
                                if a.fetch_min(i, k * ENTRIES + i) {
                                    won.push((i, k * ENTRIES + i));
                                }
                            }
                        }
                        won
                    })
                })
                .collect();
            // An observer records every label change it sees; reads of one
            // location follow its modification order, i.e. install order.
            let observer = s.spawn(|| {
                let mut seen = vec![vec![u64::MAX]; ENTRIES as usize];
                start.wait();
                while racing.load(Ordering::Relaxed) {
                    for (i, log) in seen.iter_mut().enumerate() {
                        let x = a.get(i as u64);
                        if x != *log.last().unwrap() {
                            log.push(x);
                        }
                    }
                }
                seen
            });
            let wins: Vec<(u64, u64)> = claimers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            racing.store(false, Ordering::Relaxed);
            (wins, observer.join().unwrap())
        });
        for i in 0..ENTRIES {
            assert_eq!(a.get(i), i, "entry {i} ends at the minimum of all values");
            let mut installed: Vec<u64> = wins
                .iter()
                .filter(|&&(e, _)| e == i)
                .map(|&(_, v)| v)
                .collect();
            let total = installed.len();
            installed.sort_unstable();
            installed.dedup();
            assert_eq!(installed.len(), total, "a value of entry {i} won twice");
            let log = &seen[i as usize];
            assert!(
                log.windows(2).all(|w| w[0] > w[1]),
                "entry {i} rose between installs: {log:?}"
            );
            for x in &log[1..] {
                assert!(
                    installed.binary_search(x).is_ok(),
                    "{x} appeared without a win"
                );
            }
        }
    }

    #[test]
    fn concurrent_fetch_min_converges() {
        let a = AtomicStateArray::new(1, u64::MAX);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let a = &a;
                s.spawn(move || {
                    for i in 0..1000 {
                        a.fetch_min(0, t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(a.get(0), 0);
    }
}
