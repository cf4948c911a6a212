//! Mailbox matrix: across thread counts and drain batch sizes, remote
//! delivery must preserve every engine invariant — identical visit counts
//! on a deterministic workload, exact priority order single-threaded,
//! same-vertex exclusivity, and prompt teardown on abort or panic.

use asyncgt_vq::{
    AbortReason, FallibleVisitHandler, PushCtx, VisitHandler, Visitor, VisitorQueue, VqConfig,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const THREADS: [usize; 4] = [1, 4, 16, 64];
const BATCHES: [usize; 2] = [1, 8];

fn cfg(threads: usize, io_batch: usize) -> VqConfig {
    VqConfig {
        io_batch,
        ..VqConfig::with_threads(threads)
    }
}

/// A visitor ordered by (priority, vertex) — the engine's semi-sort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Vis {
    prio: u64,
    vertex: u64,
}

impl Visitor for Vis {
    fn target(&self) -> u64 {
        self.vertex
    }
    fn priority(&self) -> u64 {
        self.prio
    }
}

/// Binary-tree flood over vertices `0..n`: every vertex is pushed exactly
/// once, so the total visit count is `n` for ANY scheduling — the
/// deterministic workload the whole matrix is compared on.
struct TreeFlood {
    n: u64,
    visits: Vec<AtomicU64>,
}

impl TreeFlood {
    fn new(n: u64) -> Self {
        TreeFlood {
            n,
            visits: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl VisitHandler<Vis> for TreeFlood {
    fn visit(&self, v: Vis, ctx: &mut PushCtx<'_, Vis>) {
        self.visits[v.vertex as usize].fetch_add(1, Ordering::Relaxed);
        for child in [2 * v.vertex + 1, 2 * v.vertex + 2] {
            if child < self.n {
                ctx.push(Vis {
                    prio: v.prio + 1,
                    vertex: child,
                });
            }
        }
    }
}

#[test]
fn visit_counts_identical_across_matrix() {
    const N: u64 = 20_000;
    for threads in THREADS {
        for batch in BATCHES {
            let h = TreeFlood::new(N);
            let stats = VisitorQueue::run(&cfg(threads, batch), &h, [Vis { prio: 0, vertex: 0 }]);
            assert_eq!(
                stats.visitors_executed, N,
                "threads={threads} batch={batch}"
            );
            // An infallible handler's every visit counts as expanded.
            assert_eq!(stats.relaxations, N, "threads={threads} batch={batch}");
            for (v, c) in h.visits.iter().enumerate() {
                assert_eq!(
                    c.load(Ordering::Relaxed),
                    1,
                    "vertex {v} (threads={threads} batch={batch})"
                );
            }
        }
    }
}

/// Records execution order; seeds only (no pushes), so single-threaded
/// execution must follow exact (priority, vertex) order.
struct OrderLog(Mutex<Vec<Vis>>);

impl VisitHandler<Vis> for OrderLog {
    fn visit(&self, v: Vis, _ctx: &mut PushCtx<'_, Vis>) {
        self.0.lock().unwrap().push(v);
    }
}

#[test]
fn single_thread_executes_in_priority_order() {
    // A deliberately shuffled seed set: priorities interleaved, vertex ids
    // descending within each priority class.
    let mut seeds = Vec::new();
    for vertex in (0..64u64).rev() {
        seeds.push(Vis {
            prio: vertex % 7,
            vertex,
        });
    }
    for batch in BATCHES {
        let h = OrderLog(Mutex::new(Vec::new()));
        VisitorQueue::run(&cfg(1, batch), &h, seeds.iter().copied());
        let got = h.0.into_inner().unwrap();
        let mut want = seeds.clone();
        want.sort_unstable();
        assert_eq!(
            got, want,
            "single-threaded order must be (priority, vertex) sorted (batch={batch})"
        );
    }
}

/// Many scattered producers all address the same few hot vertices; a
/// per-vertex "in visit" flag catches any concurrent entry. Exclusivity is
/// per exact vertex (same target → same thread, serialized), so the flag is
/// indexed by the hot vertex's own id.
const HOT: u64 = 8;

struct Exclusive {
    in_visit: Vec<AtomicBool>,
    violations: AtomicUsize,
    hot_visits: AtomicU64,
    fan: u64,
}

impl VisitHandler<Vis> for Exclusive {
    fn visit(&self, v: Vis, ctx: &mut PushCtx<'_, Vis>) {
        if v.prio == 0 {
            // Seed layer: vertices ≥ HOT, scattered across every worker;
            // each fans many visitors onto the shared hot set.
            for i in 0..self.fan {
                ctx.push(Vis {
                    prio: 1,
                    vertex: (v.vertex + i) % HOT,
                });
            }
            return;
        }
        let hot = v.vertex as usize;
        if self.in_visit[hot]
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
        // Widen the race window: exclusivity must hold even when a visit
        // lingers inside the critical region.
        for _ in 0..32 {
            std::hint::spin_loop();
        }
        self.hot_visits.fetch_add(1, Ordering::Relaxed);
        self.in_visit[hot].store(false, Ordering::Release);
    }
}

#[test]
fn same_vertex_visits_never_overlap() {
    const SEEDS: u64 = 32;
    const FAN: u64 = 512;
    for threads in [4usize, 16, 64] {
        let h = Exclusive {
            in_visit: (0..HOT).map(|_| AtomicBool::new(false)).collect(),
            violations: AtomicUsize::new(0),
            hot_visits: AtomicU64::new(0),
            fan: FAN,
        };
        let seeds = (0..SEEDS).map(|i| Vis {
            prio: 0,
            vertex: HOT + i,
        });
        VisitorQueue::run(&cfg(threads, 1), &h, seeds);
        assert_eq!(
            h.violations.load(Ordering::Relaxed),
            0,
            "same-vertex exclusivity violated (threads={threads})"
        );
        assert_eq!(h.hot_visits.load(Ordering::Relaxed), SEEDS * FAN);
    }
}

/// Fallible handler that floods work, then fails at one vertex: the run
/// must come down promptly even with most workers parked or mid-drain.
/// Odd vertices report their visit as stale (not expanded).
struct FailAt {
    n: u64,
    bad: u64,
}

impl FallibleVisitHandler<Vis> for FailAt {
    fn try_visit(&self, v: Vis, ctx: &mut PushCtx<'_, Vis>) -> Result<bool, AbortReason> {
        if v.vertex == self.bad {
            return Err("injected failure".into());
        }
        for child in [2 * v.vertex + 1, 2 * v.vertex + 2] {
            if child < self.n {
                ctx.push(Vis {
                    prio: v.prio + 1,
                    vertex: child,
                });
            }
        }
        Ok(v.vertex.is_multiple_of(2))
    }
}

#[test]
fn abort_tears_down_promptly() {
    for threads in THREADS {
        let h = FailAt {
            n: 1 << 20,
            bad: 777,
        };
        let t = Instant::now();
        let err = VisitorQueue::try_run(&cfg(threads, 1), &h, [Vis { prio: 0, vertex: 0 }])
            .expect_err("run must abort");
        assert!(err.reason.to_string().contains("injected failure"));
        let s = err.stats;
        assert!(
            s.relaxations <= s.visitors_executed,
            "{threads} threads: {s:?}"
        );
        assert!(
            t.elapsed() < Duration::from_secs(30),
            "abort teardown with {threads} threads took {:?}",
            t.elapsed()
        );
    }
}

struct PanicAt {
    n: u64,
    bad: u64,
}

impl VisitHandler<Vis> for PanicAt {
    fn visit(&self, v: Vis, ctx: &mut PushCtx<'_, Vis>) {
        assert!(v.vertex != self.bad, "boom at {}", v.vertex);
        for child in [2 * v.vertex + 1, 2 * v.vertex + 2] {
            if child < self.n {
                ctx.push(Vis {
                    prio: v.prio + 1,
                    vertex: child,
                });
            }
        }
    }
}

#[test]
fn panic_propagates_without_hanging() {
    for threads in [4usize, 64] {
        let result = std::panic::catch_unwind(|| {
            let h = PanicAt {
                n: 1 << 20,
                bad: 555,
            };
            VisitorQueue::run(&cfg(threads, 1), &h, [Vis { prio: 0, vertex: 0 }])
        });
        assert!(
            result.is_err(),
            "handler panic must propagate ({threads} threads)"
        );
    }
}
