//! asyncgt benchmark: four seeded workloads, every output checked against
//! the serial reference, end-to-end metrics from an untraced run and
//! per-layer metrics from a traced run. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <im-bfs|im-cc|sem-bfs|engine-mix> --seed <n>
//!           --seconds <n> --trace <0|1> [--tiny] [--wrong-reference]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The exit code is 0 only if every traversal and query matched.

mod engine;
mod engine_mix;
mod layers;
mod oneshot;
mod probes;
mod trace;
mod util;

use asyncgt::obs::json::Value;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use util::{Metric, Outcome};

/// Seed used when none is given, and the held-out seed that a claimed
/// gain must also hold on (never used while tuning a change).
pub const DEFAULT_SEED: u64 = 1;
pub const HELDOUT_SEED: u64 = 7919;

type Workload = fn(&Ctx) -> Outcome;

/// Name, parameters and entry point of every workload.
const WORKLOADS: [(&str, &str, Workload); 4] = [
    (
        "im-bfs",
        "RMAT-A scale 18 degree 16 u32 CSR in memory; one-shot bfs, default Config, 4 seeded sources",
        oneshot::im_bfs,
    ),
    (
        "im-cc",
        "undirected RMAT-A scale 16 degree 16 u32 CSR in memory; one-shot connected_components",
        oneshot::im_cc,
    ),
    (
        "sem-bfs",
        "RMAT-A scale 17 degree 16 as .agt; SemGraph on simulated FusionIO, no cache, 8 KiB blocks, \
         checksums on; bfs with io_batch 64, no readahead or prefetch pool, 4 seeded sources",
        oneshot::sem_bfs,
    ),
    (
        "engine-mix",
        "uniformly weighted RMAT-A scale 13 in memory; with_engine rounds of 64 queries, closed loop \
         from one thread keeping nproc queries outstanding, submit_bfs:submit_sssp 3:1 over 16 sources",
        engine_mix::engine_mix,
    ),
];

/// Run-wide settings every workload reads.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Present in the traced run (`--trace 1`).
    pub tracer: Option<Tracer>,
    /// Self-test scale: every graph at most 2^10 vertices.
    pub tiny: bool,
    /// Self-test of the correctness gate: corrupt one serial answer.
    pub wrong_reference: bool,
    pub threads: usize,
    work: PathBuf,
}

impl Ctx {
    pub fn tr(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    pub fn scale(&self, full: u32) -> u32 {
        if self.tiny {
            full.min(10)
        } else {
            full
        }
    }

    /// A scratch file of this run, removed when the run ends.
    pub fn work_file(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    wrong_reference: bool,
}

const USAGE: &str = "usage: perfbench --workload <im-bfs|im-cc|sem-bfs|engine-mix> --seed <n> \
                     --seconds <n> --trace <0|1> [--tiny] [--wrong-reference]";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
        wrong_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--tiny" => a.tiny = true,
            "--wrong-reference" => a.wrong_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn num(x: f64) -> String {
    // `{:?}` prints the shortest form that reads back exactly.
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Host and build facts stamped on every result, so results from
/// different hosts are never compared silently.
fn stamp(a: &Args, params: &str) -> Value {
    let env = |k: &str| Value::Str(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    Value::Obj(vec![
        ("workload".into(), Value::Str(a.workload.clone())),
        ("params".into(), Value::Str(params.into())),
        ("seed".into(), Value::Int(a.seed)),
        ("default_seed".into(), Value::Int(DEFAULT_SEED)),
        ("heldout_seed".into(), Value::Int(HELDOUT_SEED)),
        ("seconds".into(), Value::Float(a.seconds)),
        ("trace".into(), Value::Bool(a.trace)),
        ("nproc".into(), Value::Int(util::nproc() as u64)),
        ("cpu_model".into(), Value::Str(util::cpu_model())),
        ("commit".into(), env("PERFBENCH_COMMIT")),
        ("source_sha256".into(), env("PERFBENCH_SOURCE_SHA256")),
        ("rustc".into(), Value::Str(env!("PERFBENCH_RUSTC").into())),
    ])
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, params, run)) = WORKLOADS.iter().find(|w| w.0 == a.workload) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", a.workload);
        return ExitCode::from(2);
    };
    let out_dir = PathBuf::from(".bench_out");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        tracer: a.trace.then(Tracer::new),
        tiny: a.tiny,
        wrong_reference: a.wrong_reference,
        threads: util::nproc(),
        work,
    };
    let outcome = run(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);

    let stamp = stamp(&a, params);
    if let Some(tr) = &ctx.tracer {
        let doc = Value::Obj(vec![
            ("stamp".into(), stamp.clone()),
            ("spans".into(), tr.to_json()),
            (
                "recorder".into(),
                outcome
                    .snapshot
                    .as_ref()
                    .map_or(Value::Null, |s| s.to_json()),
            ),
        ]);
        let path = out_dir.join(format!("trace-{}-seed{}.json", a.workload, a.seed));
        if let Err(e) = std::fs::write(&path, doc.to_pretty_string()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let t = &outcome.tally;
    if let Some(e) = &t.first_error {
        eprintln!(
            "perfbench: {} of {} checks failed; first: {e}",
            t.failed, t.attempted
        );
    }
    println!("{{\"stamp\": {}}}", compact(&stamp));
    let correct = t.failed == 0 && t.attempted > 0;
    println!(
        "{}",
        result_line(correct, t.attempted.max(1), t.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One-line rendering of a JSON value.
fn compact(v: &Value) -> String {
    v.to_pretty_string()
        .lines()
        .map(str::trim)
        .collect::<Vec<_>>()
        .join(" ")
}
