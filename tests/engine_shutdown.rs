//! Engine teardown joins every worker it spawned.
//!
//! Kept in its own test binary: the check compares this process's thread
//! count before and after an engine's lifetime, which only means something
//! when no sibling test is spawning engines or workers alongside it.

use asyncgt::obs::NoopRecorder;
use asyncgt::{with_engine, Config, EngineOpts};
use asyncgt_integration_tests::random_graph;
use std::time::Duration;

/// Thread count of this process, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .unwrap()
        .trim()
        .parse()
        .unwrap()
}

#[cfg(target_os = "linux")]
#[test]
fn drain_then_shutdown_leaks_no_threads() {
    let g = random_graph(200, 800, 10, 9);
    let opts = EngineOpts {
        cfg: Config::with_threads(4),
        max_concurrent: 4,
    };
    let before = thread_count();
    let (_, stats) = with_engine(&g, &opts, &NoopRecorder, |eng| {
        let tickets: Vec<_> = (0..8).map(|i| eng.submit_bfs(&[i * 20]).unwrap()).collect();
        for t in tickets {
            t.wait().unwrap();
        }
    });
    assert_eq!(stats.num_threads, 4);
    // The engine joins its workers before returning, but a joined thread
    // can stay in the kernel's count for a moment while it finishes
    // exiting, so poll briefly.
    for _ in 0..50 {
        if thread_count() <= before {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!(
        "engine leaked threads: {} before, {} after drain",
        before,
        thread_count()
    );
}
