//! Experiment-harness support: table formatting, environment-driven
//! experiment sizing, and shared workload builders.
//!
//! Every table/figure of the paper has a dedicated binary in `src/bin/`:
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig1` | Fig. 1 — multithreaded random-read IOPS on 3 flash configs |
//! | `table1` | Table I — in-memory BFS comparison |
//! | `table2` | Table II — in-memory SSSP comparison |
//! | `table3` | Table III — in-memory CC comparison |
//! | `table4` | Table IV — semi-external BFS on 3 flash configs |
//! | `table5` | Table V — semi-external CC on 3 flash configs |
//! | `ablation` | §III/§IV design-choice ablations (chain worst case, oversubscription, semi-sort, I/O batch drain, vertex relabeling) |
//!
//! Sizing is environment-driven so the full suite completes on a laptop
//! container yet scales up on real hardware:
//!
//! * `ASYNCGT_SCALES` — comma-separated RMAT scales (default `14,15,16`;
//!   the paper ran 25–30).
//! * `ASYNCGT_THREADS` — thread counts per experiment (default `1,16,512`,
//!   matching the paper's reported columns).
//! * `ASYNCGT_SEM_SCALES` — RMAT scales for the semi-external tables
//!   (default `14,15`).

pub mod table;
pub mod workloads;

use std::time::{Duration, Instant};

/// Time one closure, returning its output and the elapsed wall time.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Run `f` `runs` times (at least once): the last run's output, and the
/// wall-time median and interquartile range over all runs.
pub fn median_iqr<T>(runs: usize, mut f: impl FnMut() -> T) -> (T, Duration, Duration) {
    let (mut out, first) = time(&mut f);
    let mut times = vec![first];
    for _ in 1..runs {
        let (o, dt) = time(&mut f);
        out = o;
        times.push(dt);
    }
    let (median, iqr) = quartile_spread(times);
    (out, median, iqr)
}

/// Median and interquartile range of `times`, quartiles by nearest rank.
fn quartile_spread(mut times: Vec<Duration>) -> (Duration, Duration) {
    times.sort();
    let at = |q: usize| times[q * (times.len() - 1) / 4];
    (at(2), at(3) - at(1))
}

/// Parse a comma-separated `u64` list from an environment variable.
fn env_list(var: &str, default: &[u64]) -> Vec<u64> {
    match std::env::var(var) {
        Ok(s) => s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<u64>()
                    .unwrap_or_else(|e| panic!("bad {var} entry {t:?}: {e}"))
            })
            .collect(),
        Err(_) => default.to_vec(),
    }
}

/// RMAT scales for the in-memory tables (`ASYNCGT_SCALES`).
pub fn scales() -> Vec<u32> {
    env_list("ASYNCGT_SCALES", &[14, 15, 16])
        .into_iter()
        .map(|s| s as u32)
        .collect()
}

/// RMAT scales for the semi-external tables (`ASYNCGT_SEM_SCALES`).
/// Smaller than the in-memory scales: the default SEM regime is uncached
/// (every adjacency visit is a simulated device read at real microsecond
/// latencies), so wall-clock per vertex is ~1000x the in-memory cost.
pub fn sem_scales() -> Vec<u32> {
    env_list("ASYNCGT_SEM_SCALES", &[13, 14])
        .into_iter()
        .map(|s| s as u32)
        .collect()
}

/// Thread counts to sweep (`ASYNCGT_THREADS`); the paper reports 1, 16
/// (cores), and 512 (oversubscribed).
pub fn thread_counts() -> Vec<usize> {
    env_list("ASYNCGT_THREADS", &[1, 16, 512])
        .into_iter()
        .map(|t| t as usize)
        .collect()
}

/// Destination for an instrumented-run metrics snapshot
/// (`ASYNCGT_METRICS_JSON`). When set, the table binaries re-run one
/// representative configuration with a `ShardedRecorder`
/// (`asyncgt::obs`) attached and write the versioned JSON snapshot here.
/// The timed table rows themselves always run uninstrumented.
pub fn metrics_json_path() -> Option<String> {
    std::env::var("ASYNCGT_METRICS_JSON").ok()
}

/// Print the standard experiment banner (machine + sizing context that the
/// paper reports in its table captions).
pub fn banner(title: &str) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("== {title}");
    println!(
        "   host: {cores} core(s); paper testbed: 16-core AMD Opteron 8356 (IM), \
         8-core AMD Opteron 2378 (SEM)"
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures_something() {
        let (v, d) = time(|| (0..10_000u64).sum::<u64>());
        assert_eq!(v, 49995000);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn quartiles_by_nearest_rank() {
        let ms = |v: u64| Duration::from_millis(v);
        let times: Vec<Duration> = [7, 1, 11, 3, 9, 5, 2, 10, 4, 8, 6].map(ms).into();
        assert_eq!(quartile_spread(times), (ms(6), ms(5)));
        assert_eq!(quartile_spread(vec![ms(4)]), (ms(4), ms(0)));
        let mut runs = 0;
        let (last, _, _) = median_iqr(3, || {
            runs += 1;
            runs
        });
        assert_eq!((last, runs), (3, 3));
    }

    #[test]
    fn defaults_are_sane() {
        assert!(!scales().is_empty());
        assert!(!thread_counts().is_empty());
        assert!(!sem_scales().is_empty());
    }
}
