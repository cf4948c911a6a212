//! Perf trajectory for the visitor-queue delivery path.
//!
//! Runs a pure fan-out workload — every visit scatters visitors onto
//! pseudo-random targets, so almost every push crosses queues — across
//! oversubscribed thread counts, and writes a schema-versioned
//! `results/BENCH_vq.json` so successive commits can be compared
//! machine-to-machine.
//!
//! Run: `cargo run -p asyncgt-bench --release --bin bench_vq -- [OUT.json]`

use asyncgt::obs::json::Value;
use asyncgt_bench::{banner, table::Table, time};
use asyncgt_vq::{PushCtx, VisitHandler, Visitor, VisitorQueue, VqConfig};
use std::time::Duration;

/// Bump when the JSON layout changes shape (fields, units, meanings).
const SCHEMA_VERSION: u64 = 2;

const THREADS: [usize; 5] = [1, 4, 16, 64, 256];
const RUNS: usize = 3;
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

/// Best-of-`RUNS` wall time at one thread count.
fn measure(threads: usize) -> (u64, Duration) {
    let cfg = VqConfig::with_threads(threads);
    let mut best = Duration::MAX;
    let mut executed = 0;
    for _ in 0..RUNS {
        let (stats, dt) = time(|| {
            VisitorQueue::run(
                &cfg,
                &FanOut,
                (0..SEEDS).map(|s| Scatter {
                    depth: 0,
                    vertex: mix(s),
                }),
            )
        });
        assert_eq!(stats.visitors_executed, expected_visitors());
        executed = stats.visitors_executed;
        best = best.min(dt);
    }
    (executed, best)
}

/// `ASYNCGT_BENCH_VQ_METRICS=1`: re-run the 64-thread cell with a
/// recorder attached and print the counter summary (diagnosis aid; the
/// timed cells always run uninstrumented).
fn metrics_probe() {
    use asyncgt::obs::{render_summary, ShardedRecorder};
    let rec = ShardedRecorder::new(64);
    let (stats, dt) = time(|| {
        VisitorQueue::run_recorded(
            &VqConfig::with_threads(64),
            &FanOut,
            (0..SEEDS).map(|s| Scatter {
                depth: 0,
                vertex: mix(s),
            }),
            &rec,
        )
    });
    println!(
        "--- @64 threads: {} visitors in {dt:?}\n{}",
        stats.visitors_executed,
        render_summary(&rec.snapshot())
    );
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_vq.json".to_string());
    banner("bench_vq: visitor delivery throughput (fan-out, mostly-remote pushes)");
    if std::env::var("ASYNCGT_BENCH_VQ_METRICS").is_ok() {
        metrics_probe();
        return;
    }
    // `ASYNCGT_BENCH_VQ_ONLY=64`: run one cell (for wrapping with
    // OS-level accounting).
    if let Ok(cell) = std::env::var("ASYNCGT_BENCH_VQ_ONLY") {
        let threads: usize = cell.parse().expect("ASYNCGT_BENCH_VQ_ONLY=THREADS");
        let (visitors, dt) = measure(threads);
        println!(
            "@{threads}: {visitors} visitors, best {dt:?} ({:.2} Mvis/s)",
            visitors as f64 / dt.as_secs_f64() / 1e6
        );
        return;
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut t = Table::new(vec!["threads", "Mvis/s"]);
    let mut rows: Vec<Value> = Vec::new();
    let mut rate_at_64 = 0.0f64;
    for threads in THREADS {
        let (visitors, dt) = measure(threads);
        let rate = visitors as f64 / dt.as_secs_f64();
        if threads == 64 {
            rate_at_64 = rate;
        }
        rows.push(Value::Obj(vec![
            ("threads".into(), Value::Int(threads as u64)),
            ("visitors".into(), Value::Int(visitors)),
            ("best_elapsed_s".into(), Value::Float(dt.as_secs_f64())),
            ("visitors_per_sec".into(), Value::Float(rate)),
            ("runs".into(), Value::Int(RUNS as u64)),
        ]));
        t.row(vec![threads.to_string(), format!("{:.2}", rate / 1e6)]);
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
                         contention and wake syscalls show up"
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
