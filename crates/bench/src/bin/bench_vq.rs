//! Perf trajectory for the visitor-queue delivery path.
//!
//! Runs a pure fan-out workload — every visit scatters visitors onto
//! pseudo-random targets, so almost every push crosses queues — across
//! oversubscribed thread counts, and writes a schema-versioned
//! `results/BENCH_vq.json` so successive commits can be compared
//! machine-to-machine. Each cell is the median and interquartile range of
//! its runs.
//!
//! Run: `cargo run -p asyncgt-bench --release --bin bench_vq -- [OUT.json]`

use asyncgt::obs::json::Value;
use asyncgt_bench::{banner, median_iqr, table::Table};
use asyncgt_vq::{PushCtx, VisitHandler, Visitor, VisitorQueue, VqConfig};
use std::time::Duration;

/// Bump when the JSON layout changes shape (fields, units, meanings).
const SCHEMA_VERSION: u64 = 3;

const THREADS: [usize; 5] = [1, 4, 16, 64, 256];
/// Runs per thread count; each cell reports the median and interquartile
/// range over them.
const RUNS: usize = 11;
const SEEDS: u64 = 64;
const FAN: u64 = 8;
const DEPTH: u64 = 5;

/// Expected visitor count: SEEDS · Σ_{d=0..=DEPTH} FAN^d.
fn expected_visitors() -> u64 {
    let mut per_seed = 0u64;
    let mut layer = 1u64;
    for _ in 0..=DEPTH {
        per_seed += layer;
        layer *= FAN;
    }
    SEEDS * per_seed
}

#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Scatter {
    depth: u64,
    vertex: u64,
}

impl Visitor for Scatter {
    fn target(&self) -> u64 {
        self.vertex
    }
    fn priority(&self) -> u64 {
        self.depth
    }
}

/// splitmix64: decorrelates child targets so pushes scatter uniformly
/// across the destination queues (≈ all-remote at high thread counts).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct FanOut;

impl VisitHandler<Scatter> for FanOut {
    fn visit(&self, v: Scatter, ctx: &mut PushCtx<'_, Scatter>) {
        if v.depth < DEPTH {
            for i in 0..FAN {
                ctx.push(Scatter {
                    depth: v.depth + 1,
                    vertex: mix(v.vertex ^ (i << 48) ^ (v.depth << 56)),
                });
            }
        }
    }
}

/// Median and interquartile range of the wall time of `RUNS` runs at one
/// thread count.
fn measure(threads: usize) -> (Duration, Duration) {
    let cfg = VqConfig::with_threads(threads);
    let (_, median, iqr) = median_iqr(RUNS, || {
        let stats = VisitorQueue::run(
            &cfg,
            &FanOut,
            (0..SEEDS).map(|s| Scatter {
                depth: 0,
                vertex: mix(s),
            }),
        );
        assert_eq!(stats.visitors_executed, expected_visitors());
    });
    (median, iqr)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_vq.json".to_string());
    banner("bench_vq: visitor delivery throughput (fan-out, mostly-remote pushes)");

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut t = Table::new(vec!["threads", "Mvis/s", "IQR ms"]);
    let mut rows: Vec<Value> = Vec::new();
    let mut rate_at_64 = 0.0f64;
    for threads in THREADS {
        let (median, iqr) = measure(threads);
        let rate = expected_visitors() as f64 / median.as_secs_f64();
        if threads == 64 {
            rate_at_64 = rate;
        }
        rows.push(Value::Obj(vec![
            ("threads".into(), Value::Int(threads as u64)),
            ("visitors".into(), Value::Int(expected_visitors())),
            (
                "median_elapsed_s".into(),
                Value::Float(median.as_secs_f64()),
            ),
            ("iqr_elapsed_s".into(), Value::Float(iqr.as_secs_f64())),
            ("visitors_per_sec".into(), Value::Float(rate)),
            ("runs".into(), Value::Int(RUNS as u64)),
        ]));
        t.row(vec![
            threads.to_string(),
            format!("{:.2}", rate / 1e6),
            format!("{:.2}", iqr.as_secs_f64() * 1e3),
        ]);
    }
    t.print();

    let doc = Value::Obj(vec![
        ("schema_version".into(), Value::Int(SCHEMA_VERSION)),
        ("bench".into(), Value::Str("bench_vq".into())),
        (
            "workload".into(),
            Value::Obj(vec![
                ("kind".into(), Value::Str("fan_out_scatter".into())),
                ("seeds".into(), Value::Int(SEEDS)),
                ("fan".into(), Value::Int(FAN)),
                ("depth".into(), Value::Int(DEPTH)),
                ("visitors".into(), Value::Int(expected_visitors())),
            ]),
        ),
        (
            "host".into(),
            Value::Obj(vec![
                ("cores".into(), Value::Int(cores as u64)),
                (
                    "note".into(),
                    Value::Str(
                        "rates are hardware-dependent; thread counts above the \
                         core count measure oversubscription, where queue-lock \
                         contention and wake syscalls show up. Each cell is the \
                         median of its runs (visitors_per_sec at the median); \
                         iqr_elapsed_s is the spread between its quartiles"
                            .into(),
                    ),
                ),
            ]),
        ),
        ("results".into(), Value::Arr(rows)),
        (
            "summary".into(),
            Value::Obj(vec![(
                "visitors_per_sec_at_64_threads".into(),
                Value::Float(rate_at_64),
            )]),
        ),
    ]);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, doc.to_pretty_string() + "\n").expect("write BENCH_vq.json");
    println!("wrote {out_path}");
}
