//! Subcommand implementations.

use crate::args::{Args, Spec};
use asyncgt::graph::generators::{webgraph_edges, RmatGenerator, RmatParams, WebGraphParams};
use asyncgt::graph::traits::WeightedEdgeList;
use asyncgt::graph::weights::{assign_weights, WeightKind};
use asyncgt::graph::{io, stats, CsrGraph, Graph, GraphBuilder};
use asyncgt::obs::NoopRecorder;
use asyncgt::obs::{render_summary, ShardedRecorder};
use asyncgt::storage::reader::SemConfig;
use asyncgt::storage::{
    write_sem_graph, DeviceModel, FaultPlan, FaultyDevice, RetryPolicy, SemGraph, SimulatedFlash,
};
use asyncgt::{
    try_bfs_recorded, try_connected_components_recorded, try_sssp_recorded, with_engine, Config,
    EngineOpts, TraversalError,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A CLI failure, classified for exit handling: usage errors get the USAGE
/// text appended by `main`, runtime errors (I/O, storage, validation) print
/// as a one-line diagnostic only.
#[derive(Debug)]
pub enum CliError {
    /// The invocation itself was malformed (bad flag, missing argument).
    Usage(String),
    /// The invocation was fine but the operation failed.
    Runtime(String),
}

impl From<String> for CliError {
    /// Bare-string errors come from argument parsing; classify as usage.
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.to_string())
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => write!(f, "{m}"),
        }
    }
}

/// Shorthand for runtime-classified failures.
fn rt(msg: String) -> CliError {
    CliError::Runtime(msg)
}

/// Top-level usage text.
pub const USAGE: &str = "usage:
  agt generate rmat --scale N [--variant a|b] [--edge-factor K] [--seed S]
               [--weights uw|luw] [--undirected] -o OUT
  agt generate web --pages N [--like sk2005|ukunion|webbase|it2004|clueweb]
               [--seed S] -o OUT
  agt convert IN OUT            (edge list <-> SEM CSR, by extension)
  agt info FILE.agt
  agt bfs  FILE.agt [--source V] [--threads T] [--device MODEL] [--validate]
               [--metrics] [--metrics-json OUT.json]
  agt sssp FILE.agt [--source V] [--threads T] [--device MODEL] [--validate]
               [--metrics] [--metrics-json OUT.json]
  agt cc   FILE.agt [--threads T] [--device MODEL] [--validate]
               [--metrics] [--metrics-json OUT.json]
  agt queries FILE.agt [--algo bfs|sssp|cc] [--sources V1,V2,…] [--count N]
               [--max-concurrent M] [--threads T]
               [--device MODEL] [--metrics] [--metrics-json OUT.json]

Each subcommand takes exactly the arguments shown, its own flags and,
where it reads a FILE.agt (bfs, sssp, cc, queries), the storage
flags below; anything else is a usage error (exit 2).

OUT extension picks the format: .agt (SEM CSR), .txt (text edge list),
anything else (binary edge list). MODEL: fusionio | intel | corsair.
--metrics prints a per-worker counter/histogram summary; --metrics-json
writes the versioned MetricsSnapshot JSON (implies collection).

concurrent queries (`queries` subcommand): one persistent engine serves
the whole batch — workers spawn once and park between queries. For
bfs/sssp each entry of --sources is one single-source query (--count N
cycles the list to N queries); for cc, --count sets how many full CC
queries run. --max-concurrent bounds in-flight queries (default 8);
further submits wait for one to finish.

I/O scheduler (storage-backed subcommands):
  --io-batch N          visitors drained per service round; batches above 1
                        coalesce adjacent block reads (default 1)
  --readahead N         speculative blocks appended per coalesced read
                        (default 0)
  --prefetch-threads N  threads issuing coalesced reads concurrently
                        (default 0: inline on the traversal worker)

storage fault injection & retry (storage-backed subcommands):
  --fault-rate P        inject faults on fraction P of block reads (0 off)
  --fault-seed S        deterministic fault schedule seed (default 1)
  --fault-permanent     injected faults are permanent (default: transient)
  --retry-attempts N    attempts per block read, first included (default 4)
  --retry-backoff-us U  base backoff before first retry (default 50)
  --retry-deadline-ms M wall-clock retry budget per read (default 1000)
  --no-verify-checksums skip per-chunk checksum verification on reads";

/// Flags every storage-backed subcommand takes (see `sem_config`).
const SEM_FLAGS: &[&str] = &[
    "--device",
    "--block-kb",
    "--cache-blocks",
    "--fault-rate",
    "--fault-seed",
    "--fault-permanent",
    "--retry-attempts",
    "--retry-backoff-us",
    "--retry-deadline-ms",
    "--readahead",
    "--prefetch-threads",
    "--no-verify-checksums",
];

/// Flags of the traversal subcommands (`bfs`, `sssp`, `cc`, `queries`).
const RUN_FLAGS: &[&str] = &["--threads", "--io-batch", "--metrics", "--metrics-json"];

/// What each subcommand accepts; `None` for an unknown subcommand.
pub(crate) fn spec(cmd: &str) -> Option<Spec> {
    const FILE: &[&str] = &["FILE.agt"];
    let (positionals, flags): (&[&str], &[&[&str]]) = match cmd {
        "generate" => (
            &["a generator (rmat|web)"],
            &[&[
                "--scale",
                "--edge-factor",
                "--variant",
                "--seed",
                "--weights",
                "--undirected",
                "--pages",
                "--like",
                "-o",
            ]],
        ),
        "convert" => (&["IN", "OUT"], &[]),
        "info" => (FILE, &[]),
        "bfs" | "sssp" => (FILE, &[RUN_FLAGS, SEM_FLAGS, &["--source", "--validate"]]),
        "cc" => (FILE, &[RUN_FLAGS, SEM_FLAGS, &["--validate"]]),
        "queries" => (
            FILE,
            &[
                RUN_FLAGS,
                SEM_FLAGS,
                &["--algo", "--sources", "--count", "--max-concurrent"],
            ],
        ),
        "help" | "--help" | "-h" => (&[], &[]),
        _ => return None,
    };
    Some(Spec { positionals, flags })
}

/// Dispatch a full argv to its subcommand.
pub fn dispatch(argv: &[String]) -> Result<(), CliError> {
    let (cmd, rest) = argv.split_first().ok_or("missing subcommand")?;
    let spec = spec(cmd).ok_or_else(|| format!("unknown subcommand {cmd:?}"))?;
    let args = Args::parse(cmd, rest, &spec)?;
    match cmd.as_str() {
        "generate" => generate(&args),
        "convert" => convert(&args),
        "info" => info(&args),
        "bfs" => traverse(&args, Algo::Bfs),
        "sssp" => traverse(&args, Algo::Sssp),
        "cc" => traverse(&args, Algo::Cc),
        "queries" => cmd_queries(&args),
        _ => {
            println!("{USAGE}");
            Ok(())
        }
    }
}

fn generate(args: &Args) -> Result<(), CliError> {
    let kind = args.pos(0);
    let out = args
        .get("-o")
        .ok_or("generate: missing -o OUT")?
        .to_string();
    let seed = args.get_parsed("--seed", 42u64)?;

    let (num_vertices, mut edges): (u64, WeightedEdgeList) = match kind {
        "rmat" => {
            let scale = args.get_parsed("--scale", 14u32)?;
            if !(1..=31).contains(&scale) {
                return Err(format!("--scale {scale} not in [1, 31]").into());
            }
            let ef = args.get_parsed("--edge-factor", 16u64)?;
            if ef > 1 << scale {
                return Err(
                    format!("--edge-factor {ef} exceeds 2^scale = {}", 1u64 << scale).into(),
                );
            }
            let params = match args.get("--variant").unwrap_or("a") {
                "a" | "A" => RmatParams::RMAT_A,
                "b" | "B" => RmatParams::RMAT_B,
                v => return Err(format!("unknown RMAT variant {v:?} (a|b)").into()),
            };
            let gen = RmatGenerator::new(params, scale, ef, seed);
            (gen.num_vertices(), gen.edges())
        }
        "web" => {
            let pages = args.get_parsed("--pages", 100_000u64)?;
            if pages < 2 {
                return Err(format!("--pages {pages} is below 2").into());
            }
            let params = match args.get("--like").unwrap_or("sk2005") {
                "sk2005" => WebGraphParams::sk2005_like(pages, seed),
                "ukunion" => WebGraphParams::uk_union_like(pages, seed),
                "webbase" => WebGraphParams::webbase_like(pages, seed),
                "it2004" => WebGraphParams::it2004_like(pages, seed),
                "clueweb" => WebGraphParams::clueweb_like(pages, seed),
                v => return Err(format!("unknown web model {v:?}").into()),
            };
            (pages, webgraph_edges(&params))
        }
        other => return Err(format!("unknown generator {other:?} (rmat|web)").into()),
    };

    let weighted = match args.get("--weights") {
        None => false,
        Some("uw") => {
            assign_weights(&mut edges, WeightKind::Uniform, num_vertices, seed ^ 0xBEEF);
            true
        }
        Some("luw") => {
            assign_weights(
                &mut edges,
                WeightKind::LogUniform,
                num_vertices,
                seed ^ 0xBEEF,
            );
            true
        }
        Some(v) => return Err(format!("unknown weight kind {v:?} (uw|luw)").into()),
    };

    let mut builder = GraphBuilder::from_edges(num_vertices, edges, weighted);
    if args.has("undirected") {
        builder = builder.symmetrize().dedup();
    }
    write_graph_as(&out, builder, weighted)?;
    println!("wrote {out}");
    Ok(())
}

/// Write a built graph / its edge list in the format `path` implies.
fn write_graph_as(path: &str, builder: GraphBuilder, weighted: bool) -> Result<(), CliError> {
    if path.ends_with(".agt") {
        let g: CsrGraph<u32> = builder.build();
        write_sem_graph(path, &g).map_err(|e| rt(format!("write {path}: {e}")))?;
        return Ok(());
    }
    // Re-extract the edge list from a built CSR for deterministic order.
    let g: CsrGraph<u32> = builder.build();
    let mut edges: WeightedEdgeList = Vec::with_capacity(g.num_edges() as usize);
    for v in 0..g.num_vertices() {
        g.for_each_neighbor(v, |t, w| edges.push((v, t, w)));
    }
    let file = std::fs::File::create(path).map_err(|e| rt(format!("create {path}: {e}")))?;
    let res = if path.ends_with(".txt") {
        io::write_text(file, g.num_vertices(), &edges, weighted)
    } else {
        io::write_binary(file, g.num_vertices(), &edges, weighted)
    };
    res.map_err(|e| rt(format!("write {path}: {e}")))
}

fn read_edge_list(path: &str) -> Result<(io::EdgeListHeader, WeightedEdgeList), CliError> {
    let file = std::fs::File::open(path).map_err(|e| rt(format!("open {path}: {e}")))?;
    let res = if path.ends_with(".txt") {
        io::read_text(file)
    } else {
        io::read_binary(file)
    };
    res.map_err(|e| rt(format!("read {path}: {e}")))
}

fn convert(args: &Args) -> Result<(), CliError> {
    let (input, output) = (args.pos(0), args.pos(1));

    if input.ends_with(".agt") {
        // SEM CSR -> edge list, through the fallible read path so a
        // truncated or corrupt file surfaces as a diagnostic, not a panic.
        let sem = SemGraph::open(input).map_err(|e| rt(format!("open {input}: {e}")))?;
        let weighted = sem.is_weighted();
        let mut edges: WeightedEdgeList = Vec::with_capacity(sem.num_edges() as usize);
        for v in 0..sem.num_vertices() {
            sem.try_for_each_neighbor(v, |t, w| edges.push((v, t, w)))
                .map_err(|e| rt(format!("read {input}: {e}")))?;
        }
        let file =
            std::fs::File::create(output).map_err(|e| rt(format!("create {output}: {e}")))?;
        let res = if output.ends_with(".txt") {
            io::write_text(file, sem.num_vertices(), &edges, weighted)
        } else {
            io::write_binary(file, sem.num_vertices(), &edges, weighted)
        };
        res.map_err(|e| rt(format!("write {output}: {e}")))?;
    } else {
        // Edge list -> any format.
        let (hdr, edges) = read_edge_list(input)?;
        let builder = GraphBuilder::from_edges(hdr.num_vertices, edges, hdr.weighted);
        write_graph_as(output, builder, hdr.weighted)?;
    }
    println!("converted {input} -> {output}");
    Ok(())
}

fn info(args: &Args) -> Result<(), CliError> {
    let path = args.pos(0);
    let sem = SemGraph::open(path).map_err(|e| rt(format!("open {path}: {e}")))?;
    let h = sem.header();
    println!("file            : {path}");
    println!("vertices        : {}", h.num_vertices);
    println!("edges           : {}", h.num_edges);
    println!("index width     : {} bytes", h.index_width);
    println!("weighted        : {}", h.weighted);
    println!(
        "edge region     : {:.1} MB",
        sem.edge_region_bytes() as f64 / 1e6
    );
    let d = stats::degree_stats(&sem);
    println!(
        "out-degree      : min {} / mean {:.1} / max {} ({} isolated)",
        d.min, d.mean, d.max, d.zeros
    );
    Ok(())
}

/// Build the SEM open configuration shared by the storage-backed
/// subcommands: block/cache geometry, optional simulated device, fault
/// injection, and the retry policy, all from command-line flags.
fn sem_config(args: &Args, metrics: Option<Arc<ShardedRecorder>>) -> Result<SemConfig, CliError> {
    let device = match args.get("--device") {
        None => None,
        Some("fusionio") => Some(DeviceModel::fusion_io()),
        Some("intel") => Some(DeviceModel::intel_x25m()),
        Some("corsair") => Some(DeviceModel::corsair_p128()),
        Some(v) => return Err(format!("unknown device {v:?}").into()),
    };
    let fault_rate = args.get_parsed("--fault-rate", 0.0f64)?;
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err(format!("--fault-rate {fault_rate} not in [0, 1]").into());
    }
    let fault_seed = args.get_parsed("--fault-seed", 1u64)?;
    let faults = (fault_rate > 0.0).then(|| {
        let plan = if args.has("fault-permanent") {
            FaultPlan::permanent(fault_seed, fault_rate)
        } else {
            FaultPlan::transient(fault_seed, fault_rate)
        };
        Arc::new(FaultyDevice::new(plan))
    });
    let retry = RetryPolicy {
        max_attempts: args.get_parsed("--retry-attempts", 4u32)?,
        base_backoff: Duration::from_micros(args.get_parsed("--retry-backoff-us", 50u64)?),
        deadline: Duration::from_millis(args.get_parsed("--retry-deadline-ms", 1000u64)?),
        ..RetryPolicy::default()
    };
    let block_kb = args.get_parsed("--block-kb", 64usize)?;
    let block_size = block_kb
        .checked_mul(1024)
        .filter(|&b| b > 0)
        .ok_or_else(|| format!("--block-kb {block_kb} not in [1, {}]", usize::MAX / 1024))?;
    Ok(SemConfig {
        block_size,
        cache_blocks: args.get_parsed("--cache-blocks", 4096usize)?,
        device: device.map(|m| Arc::new(SimulatedFlash::new(m))),
        // The recorder doubles as the storage metrics sink, so one
        // snapshot carries traversal counters and I/O latencies.
        metrics: metrics.map(|r| r as _),
        retry,
        faults,
        verify_checksums: !args.has("no-verify-checksums"),
        readahead: args.get_parsed("--readahead", 0usize)?,
        prefetch_threads: args.get_parsed("--prefetch-threads", 0usize)?,
    })
}

/// `agt queries`: serve a batch of traversal queries from one persistent
/// engine — workers spawn once, queries multiplex under admission control.
fn cmd_queries(args: &Args) -> Result<(), CliError> {
    let path = args.pos(0);
    let algo = args.get("--algo").unwrap_or("bfs").to_string();
    if !matches!(algo.as_str(), "bfs" | "sssp" | "cc") {
        return Err(format!("unknown --algo {algo:?} (bfs|sssp|cc)").into());
    }
    let threads = args.get_parsed("--threads", 16usize)?;
    let want_metrics = args.has("metrics") || args.get("--metrics-json").is_some();
    let recorder = want_metrics.then(|| Arc::new(ShardedRecorder::new(threads)));

    let sem_cfg = sem_config(args, recorder.clone())?;
    let sem = SemGraph::open_with(path, sem_cfg).map_err(|e| rt(format!("open {path}: {e}")))?;
    let opts = EngineOpts {
        cfg: Config::with_threads(threads).with_io_batch(args.get_parsed("--io-batch", 1usize)?),
        max_concurrent: args.get_parsed("--max-concurrent", 8usize)?,
    };

    let sources: Vec<u64> = match args.get("--sources") {
        None => vec![0],
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("bad vertex id {s:?} in --sources"))
            })
            .collect::<Result<_, String>>()?,
    };
    let count = args.get_parsed("--count", 0usize)?;

    let failures = match &recorder {
        Some(r) => run_query_batch(&sem, &opts, &algo, &sources, count, r.as_ref())?,
        None => run_query_batch(&sem, &opts, &algo, &sources, count, &NoopRecorder)?,
    };

    report_io(args, &sem, recorder.as_deref())?;
    if failures > 0 {
        return Err(rt(format!("{path}: {failures} queries failed")));
    }
    Ok(())
}

/// Submit the whole batch (a submit waits while `max_concurrent` queries
/// run), wait on every ticket in submit order, print one line per query.
/// Returns how many queries failed (refused, aborted, or given a source
/// outside the graph).
fn run_query_batch<R: asyncgt::obs::Recorder>(
    sem: &SemGraph,
    opts: &EngineOpts,
    algo: &str,
    sources: &[u64],
    count: usize,
    recorder: &R,
) -> Result<usize, CliError> {
    let (failures, stats) = if algo == "cc" {
        with_engine(sem, opts, recorder, |eng| {
            let mut failures = 0usize;
            let tickets: Vec<_> = (0..count.max(1)).map(|_| eng.submit_cc()).collect();
            for (i, t) in tickets.into_iter().enumerate() {
                match t
                    .map_err(CliError::from_submit)
                    .and_then(|t| t.wait().map_err(|e| rt(e.to_string())))
                {
                    Ok(out) => println!(
                        "q{i:<4} cc          : {:>8} components, {:>10} visitors, {:?}",
                        out.component_count(),
                        out.stats.visitors_executed,
                        out.stats.elapsed
                    ),
                    Err(e) => {
                        println!("q{i:<4} cc          : {e}");
                        failures += 1;
                    }
                }
            }
            failures
        })
    } else {
        let unit = algo == "bfs";
        let total = if count > 0 { count } else { sources.len() };
        with_engine(sem, opts, recorder, |eng| {
            let mut failures = 0usize;
            let tickets: Vec<_> = (0..total)
                .map(|i| {
                    let s = sources[i % sources.len()];
                    let t = if unit {
                        eng.submit_bfs(&[s])
                    } else {
                        eng.submit_sssp(&[s])
                    };
                    (s, t)
                })
                .collect();
            for (i, (s, t)) in tickets.into_iter().enumerate() {
                match t
                    .map_err(CliError::from_submit)
                    .and_then(|t| t.wait().map_err(|e| rt(e.to_string())))
                {
                    Ok(out) => println!(
                        "q{i:<4} {algo:<4} from {s:>6}: {:>8} reached, {:>10} visitors, {:?}",
                        out.reached_count(),
                        out.stats.visitors_executed,
                        out.stats.elapsed
                    ),
                    Err(e) => {
                        println!("q{i:<4} {algo:<4} from {s:>6}: {e}");
                        failures += 1;
                    }
                }
            }
            failures
        })
    };
    println!(
        "engine          : {} workers (spawned once), {} queries, {} parks",
        stats.num_threads, stats.queries, stats.parks
    );
    println!(
        "throughput      : {:.1} queries/sec over {:?}",
        stats.queries as f64 / stats.elapsed.as_secs_f64().max(1e-9),
        stats.elapsed
    );
    Ok(failures)
}

impl CliError {
    /// A refused submit, rendered like other per-query failures.
    fn from_submit(e: asyncgt::vq::SubmitError) -> CliError {
        rt(format!("rejected: {e}"))
    }
}

enum Algo {
    Bfs,
    Sssp,
    Cc,
}

/// Render a traversal abort as the CLI's one-line runtime diagnostic.
fn traversal_failed(path: &str, e: TraversalError) -> CliError {
    rt(format!("{path}: {e}"))
}

fn traverse(args: &Args, algo: Algo) -> Result<(), CliError> {
    let path = args.pos(0);
    let threads = args.get_parsed("--threads", 16usize)?;
    let source = args.get_parsed("--source", 0u64)?;
    let want_metrics = args.has("metrics") || args.get("--metrics-json").is_some();
    let recorder = want_metrics.then(|| Arc::new(ShardedRecorder::new(threads)));

    let sem_cfg = sem_config(args, recorder.clone())?;
    let sem = SemGraph::open_with(path, sem_cfg).map_err(|e| rt(format!("open {path}: {e}")))?;
    let cfg = Config::with_threads(threads).with_io_batch(args.get_parsed("--io-batch", 1usize)?);

    let t = Instant::now();
    let run_stats = match algo {
        Algo::Bfs | Algo::Sssp => {
            let out = match (&algo, &recorder) {
                (Algo::Bfs, Some(r)) => try_bfs_recorded(&sem, source, &cfg, r.as_ref()),
                (Algo::Bfs, None) => try_bfs_recorded(&sem, source, &cfg, &NoopRecorder),
                (_, Some(r)) => try_sssp_recorded(&sem, source, &cfg, r.as_ref()),
                (_, None) => try_sssp_recorded(&sem, source, &cfg, &NoopRecorder),
            }
            .map_err(|e| traversal_failed(path, e))?;
            println!("elapsed         : {:?}", t.elapsed());
            println!(
                "reached         : {} ({:.1}%)",
                out.reached_count(),
                out.visited_fraction() * 100.0
            );
            println!("levels/dists    : {}", out.level_count());
            println!(
                "visitors        : {} executed, {:.2} per relaxation",
                out.stats.visitors_executed,
                out.revisit_factor()
            );
            if args.has("validate") {
                let unit = matches!(algo, Algo::Bfs);
                asyncgt::validate::check_shortest_paths(&sem, source, &out, unit)
                    .map_err(|e| rt(format!("validation failed: {e}")))?;
                println!("validation      : ok");
            }
            out.stats
        }
        Algo::Cc => {
            let out = match &recorder {
                Some(r) => try_connected_components_recorded(&sem, &cfg, r.as_ref()),
                None => try_connected_components_recorded(&sem, &cfg, &NoopRecorder),
            }
            .map_err(|e| traversal_failed(path, e))?;
            println!("elapsed         : {:?}", t.elapsed());
            println!("components      : {}", out.component_count());
            println!(
                "largest         : {} vertices",
                out.largest_component_size()
            );
            println!("visitors        : {} executed", out.stats.visitors_executed);
            if args.has("validate") {
                asyncgt::validate::check_components(&sem, &out.ccid)
                    .map_err(|e| rt(format!("validation failed: {e}")))?;
                println!("validation      : ok");
            }
            out.stats
        }
    };
    println!(
        "queue           : {} local pushes ({:.1}%), {} inbox batches, {} parks",
        run_stats.local_pushes,
        100.0 * run_stats.local_pushes as f64 / run_stats.visitors_pushed.max(1) as f64,
        run_stats.inbox_batches,
        run_stats.parks
    );
    report_io(args, &sem, recorder.as_deref())
}

/// Print the run's I/O summary, then — when a recorder collected metrics —
/// the `--metrics` summary and the `--metrics-json` snapshot, both
/// carrying the graph's I/O counters.
fn report_io(
    args: &Args,
    sem: &SemGraph,
    recorder: Option<&ShardedRecorder>,
) -> Result<(), CliError> {
    let io_stats = sem.io_stats();
    println!(
        "I/O             : {} adjacency reads, {} device reads, {:.1} MB",
        io_stats.adjacency_reads,
        io_stats.block_fetches,
        io_stats.bytes_read as f64 / 1e6
    );
    if io_stats.blocks_coalesced > 0 || io_stats.readahead_hits > 0 {
        println!(
            "I/O sched       : {} blocks coalesced in {} merged reads, {} readahead hits",
            io_stats.blocks_coalesced, io_stats.reads_merged, io_stats.readahead_hits
        );
    }
    if io_stats.retries > 0 || io_stats.faults_fatal > 0 {
        println!(
            "faults          : {} retries, {} absorbed, {} fatal",
            io_stats.retries, io_stats.faults_absorbed, io_stats.faults_fatal
        );
    }
    if let Some(rec) = recorder {
        let mut snap = rec.snapshot();
        snap.io = Some(io_stats);
        if args.has("metrics") {
            println!("\n{}", render_summary(&snap));
        }
        if let Some(out_path) = args.get("--metrics-json") {
            std::fs::write(out_path, snap.to_json_string())
                .map_err(|e| rt(format!("write {out_path}: {e}")))?;
            println!("metrics json    : {out_path}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &str) -> Result<(), CliError> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        dispatch(&argv)
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("asyncgt_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run("frobnicate").is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn generate_info_traverse_round_trip() {
        let agt = tmp("cli_rt.agt");
        run(&format!(
            "generate rmat --scale 9 --variant b --weights uw -o {agt}"
        ))
        .unwrap();
        run(&format!("info {agt}")).unwrap();
        run(&format!("bfs {agt} --threads 4 --validate")).unwrap();
        run(&format!("sssp {agt} --threads 4 --validate")).unwrap();
    }

    #[test]
    fn generate_undirected_and_cc() {
        let agt = tmp("cli_cc.agt");
        run(&format!(
            "generate web --pages 2000 --like webbase --undirected -o {agt}"
        ))
        .unwrap();
        run(&format!("cc {agt} --threads 8 --validate")).unwrap();
    }

    #[test]
    fn convert_edge_list_to_sem_and_back() {
        let txt = tmp("cli_conv.txt");
        let agt = tmp("cli_conv.agt");
        let back = tmp("cli_back.txt");
        run(&format!("generate rmat --scale 8 -o {txt}")).unwrap();
        run(&format!("convert {txt} {agt}")).unwrap();
        run(&format!("convert {agt} {back}")).unwrap();
        // Round trip preserves the edge multiset.
        let (h1, mut e1) = read_edge_list(&txt).unwrap();
        let (h2, mut e2) = read_edge_list(&back).unwrap();
        assert_eq!(h1.num_vertices, h2.num_vertices);
        e1.sort_unstable();
        e2.sort_unstable();
        assert_eq!(e1, e2);
    }

    #[test]
    fn traverse_with_simulated_device() {
        let agt = tmp("cli_dev.agt");
        run(&format!("generate rmat --scale 8 -o {agt}")).unwrap();
        run(&format!(
            "bfs {agt} --threads 32 --device fusionio --block-kb 8 --validate"
        ))
        .unwrap();
    }

    #[test]
    fn metrics_flags_emit_summary_and_json() {
        let agt = tmp("cli_metrics.agt");
        let json = tmp("cli_metrics.json");
        run(&format!("generate rmat --scale 8 -o {agt}")).unwrap();
        run(&format!(
            "bfs {agt} --threads 4 --metrics --metrics-json {json}"
        ))
        .unwrap();
        let text = std::fs::read_to_string(&json).unwrap();
        let snap = asyncgt::obs::MetricsSnapshot::from_json_str(&text).unwrap();
        assert_eq!(
            snap.counter("visitors_pushed"),
            snap.counter("visitors_executed"),
            "all pushed visitors must execute by termination"
        );
        assert!(snap.counter("visitors_executed") > 0);
        assert!(snap.io.is_some(), "SEM run must attach I/O stats");
        assert!(snap.io.as_ref().unwrap().bytes_read > 0);
    }

    #[test]
    fn bad_flags_error_cleanly() {
        assert!(run("generate rmat --variant z -o x.agt").is_err());
        assert!(run("generate web --like nope -o x.agt").is_err());
        assert!(run("bfs missing_file.agt").is_err());
        assert!(run("convert only_one_arg").is_err());
    }

    #[test]
    fn queries_batch_runs_on_one_engine() {
        let agt = tmp("cli_queries.agt");
        run(&format!("generate rmat --scale 8 --weights uw -o {agt}")).unwrap();
        run(&format!(
            "queries {agt} --algo bfs --sources 0,5,9 --threads 4 --max-concurrent 2"
        ))
        .unwrap();
        run(&format!(
            "queries {agt} --algo sssp --sources 3 --count 4 --threads 4"
        ))
        .unwrap();
        run(&format!("queries {agt} --algo cc --count 2 --threads 4")).unwrap();
    }

    #[test]
    fn queries_with_metrics_and_device() {
        let agt = tmp("cli_queries_dev.agt");
        let json = tmp("cli_queries_metrics.json");
        run(&format!("generate rmat --scale 8 -o {agt}")).unwrap();
        run(&format!(
            "queries {agt} --sources 0,1 --threads 4 --device fusionio --metrics-json {json}"
        ))
        .unwrap();
        let text = std::fs::read_to_string(&json).unwrap();
        let snap = asyncgt::obs::MetricsSnapshot::from_json_str(&text).unwrap();
        assert_eq!(snap.counter("queries_completed"), 2);
        assert!(snap.io.is_some(), "device run must attach I/O stats");
    }

    #[test]
    fn queries_rejects_bad_inputs() {
        let agt = tmp("cli_queries_bad.agt");
        run(&format!("generate rmat --scale 8 -o {agt}")).unwrap();
        assert!(matches!(
            run(&format!("queries {agt} --algo frontier")),
            Err(CliError::Usage(_))
        ));
        // An out-of-range source fails its own query at run time, like
        // a one-shot traversal's; the other queries still run.
        assert!(matches!(
            run(&format!("queries {agt} --sources 0,999999")),
            Err(CliError::Runtime(_))
        ));
        assert!(matches!(
            run(&format!("queries {agt} --sources zero")),
            Err(CliError::Usage(_))
        ));
        // A one-shot traversal rejects an out-of-range source with a
        // typed error: a one-line runtime diagnostic naming the source.
        for algo in ["bfs", "sssp"] {
            match run(&format!("{algo} {agt} --source 999999")) {
                Err(CliError::Runtime(msg)) => {
                    assert!(msg.contains("source vertex 999999 out of range"), "{msg}");
                    assert!(!msg.contains('\n'), "{msg}");
                }
                other => panic!("{algo}: expected a runtime error, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        for extra in ["--valdiate", "--thread 8"] {
            match run(&format!("bfs g.agt {extra}")) {
                Err(CliError::Usage(msg)) => {
                    let flag = extra.split(' ').next().unwrap();
                    assert!(msg.contains(flag), "{extra}: {msg}");
                }
                other => panic!("{extra}: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn each_subcommand_takes_only_its_arguments_and_flags() {
        // Stray positionals, missing positionals, and flags that belong to
        // another subcommand are all usage errors (exit 2), rejected
        // before any file is opened.
        for (line, needle) in [
            ("bfs g.agt extra-arg", "unexpected argument \"extra-arg\""),
            ("info a.agt b.agt", "unexpected argument \"b.agt\""),
            ("convert only_one_arg", "missing OUT"),
            ("info", "missing FILE.agt"),
            ("generate -o x.agt", "missing a generator"),
            ("bfs g.agt --undirected", "--undirected"),
            ("cc g.agt --source 3", "--source"),
            ("queries g.agt --validate", "--validate"),
            ("info g.agt --threads 2", "--threads"),
            ("convert a.txt b.agt --device fusionio", "--device"),
            ("generate rmat --threads 2 -o x.agt", "--threads"),
            ("help me", "unexpected argument"),
        ] {
            match run(line) {
                Err(CliError::Usage(msg)) => assert!(msg.contains(needle), "{line}: {msg}"),
                other => panic!("{line}: expected a usage error, got {other:?}"),
            }
        }
        assert!(run("help").is_ok());
    }

    #[test]
    fn errors_are_classified_for_exit_handling() {
        // Malformed invocation → usage (main appends the USAGE text).
        assert!(matches!(
            run("generate rmat --variant z -o x.agt"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(run("frobnicate"), Err(CliError::Usage(_))));
        // A removed subcommand is unknown like any other: usage, exit 2.
        match run("pagerank g.agt") {
            Err(CliError::Usage(msg)) => assert!(msg.contains("unknown subcommand"), "{msg}"),
            other => panic!("pagerank: expected a usage error, got {other:?}"),
        }
        // Well-formed invocation hitting a missing file → runtime.
        assert!(matches!(
            run("bfs missing_file.agt"),
            Err(CliError::Runtime(_))
        ));
        assert!(matches!(
            run("bfs x.agt --fault-rate 1.5"),
            Err(CliError::Usage(_))
        ));
        // A zero block size, or one whose byte count overflows, is usage.
        assert!(matches!(
            run("bfs x.agt --block-kb 0"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&format!("bfs x.agt --block-kb {}", usize::MAX / 1024 + 1)),
            Err(CliError::Usage(_))
        ));
        // Generator sizes the generators cannot build are usage, not a
        // panic: RMAT scale outside 1..=31, more unique edges per vertex
        // than vertices, a web graph of fewer than two pages.
        for line in [
            "generate rmat --scale 0 -o x.agt",
            "generate rmat --scale 40 -o x.agt",
            "generate rmat --scale 4 --edge-factor 100 -o x.agt",
            "generate web --pages 1 -o y.agt",
        ] {
            assert!(matches!(run(line), Err(CliError::Usage(_))), "{line}");
        }
    }

    #[test]
    fn transient_faults_with_retries_still_succeed() {
        let agt = tmp("cli_fault_ok.agt");
        run(&format!("generate rmat --scale 8 -o {agt}")).unwrap();
        // Every block read faults on first attempt; the retry budget
        // absorbs them all and the traversal completes with validation.
        run(&format!(
            "bfs {agt} --threads 4 --block-kb 8 --fault-rate 1.0 \
             --fault-seed 7 --retry-backoff-us 1 --validate"
        ))
        .unwrap();
        run(&format!(
            "sssp {agt} --threads 4 --block-kb 8 --fault-rate 0.5 --retry-backoff-us 1"
        ))
        .unwrap();
    }

    #[test]
    fn permanent_faults_fail_with_runtime_diagnostic() {
        let agt = tmp("cli_fault_fatal.agt");
        run(&format!("generate rmat --scale 8 -o {agt}")).unwrap();
        let err = run(&format!(
            "bfs {agt} --threads 4 --block-kb 8 --fault-rate 1.0 --fault-permanent"
        ))
        .unwrap_err();
        match err {
            CliError::Runtime(msg) => {
                assert!(msg.contains("storage"), "diagnostic names storage: {msg}");
                assert!(!msg.contains('\n'), "diagnostic is one line: {msg}");
            }
            CliError::Usage(msg) => panic!("misclassified as usage: {msg}"),
        }
    }
}
