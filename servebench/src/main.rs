//! `servebench` — the serving benchmark for `prsim serve`.
//!
//! ```text
//! servebench --workload NAME --seed N --seconds S --trace 0|1
//!            --prsim PATH --work-dir DIR
//! ```
//!
//! Normally run through `servebench/run.sh`, which builds `prsim` and
//! this binary from source first. One run:
//!
//! 1. generates the workload's Chung-Lu graph (from its graph seed);
//! 2. starts the real `prsim serve` as a child process with CLI
//!    defaults (only `--listen 127.0.0.1:0`, plus `--memory-budget`
//!    for the paged workload) three times, timing set-up each time, and
//!    drives the last one with closed-loop TCP clients and a writer
//!    (the untraced, end-to-end measurement);
//! 3. runs the correctness gate: every reply `ok`, per-connection
//!    `lsn=` never decreasing, every acked update visible, the final
//!    `stats` consistent with the acks, and every reply served from the
//!    boot epoch byte-identical to `protocol::handle_line` on an
//!    in-process host opened with the same options;
//! 4. with `--trace 1`, replays the same seeded requests in-process
//!    through each layer (see `trace`) and reports per-layer metrics.
//!
//! The last stdout line is the JSON result; earlier lines are for
//! people. The exit code is 0 on a correct run, 1 when the gate fails,
//! 2 when the run could not complete.

#![forbid(unsafe_code)]

mod load;
mod report;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use prsim_server::{protocol, EngineHost};

use crate::load::{field, field_u64, E2e, Launch};
use crate::report::{quantile, ratio, Metrics};
use crate::workload::{Queries, Spec, UpdateStream, Updates};

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    prsim: PathBuf,
    work_dir: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |key: &str| -> Option<String> {
            let pos = argv.iter().position(|a| a == key)?;
            argv.get(pos + 1).cloned()
        };
        let need = |v: Option<String>, key: &str| v.ok_or_else(|| format!("missing {key}"));
        let num = |v: String, key: &str| -> Result<f64, String> {
            v.parse::<f64>().map_err(|_| format!("bad {key} {v:?}"))
        };
        let name = need(get("--workload"), "--workload")?;
        let spec = workload::spec(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let seed = need(get("--seed"), "--seed")?;
        let seconds = num(need(get("--seconds"), "--seconds")?, "--seconds")?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds must be in (0, 120], got {seconds}"));
        }
        Ok(Args {
            spec,
            seed: seed.parse().map_err(|_| format!("bad --seed {seed:?}"))?,
            seconds,
            trace: match need(get("--trace"), "--trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
            },
            prsim: PathBuf::from(need(get("--prsim"), "--prsim")?),
            work_dir: PathBuf::from(need(get("--work-dir"), "--work-dir")?),
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = args.work_dir.join(format!("run-{}", std::process::id()));
    let result = run(&args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Attempted and failed operations of one protocol verb.
struct Verb {
    name: &'static str,
    attempted: u64,
    failed: u64,
}

/// Runs one workload; returns the result line and whether the gate
/// passed.
fn run(args: &Args, dir: &Path) -> Result<(String, bool), String> {
    let spec = &args.spec;
    let io = |e: std::io::Error| e.to_string();
    std::fs::create_dir_all(dir).map_err(io)?;
    let graph_path = dir.join("graph.bin");
    workload::write_graph(spec.n, spec.graph_seed, &graph_path).map_err(io)?;
    let graph = prsim_graph::io::read_binary_file(&graph_path).map_err(|e| e.to_string())?;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "workload {} n={} m={} graph_seed={} seed={} seconds={} trace={} nproc={cores} \
         memory_budget={:?} query_clients={} flush=fsync-on-ack",
        spec.name,
        graph.node_count(),
        graph.edge_count(),
        spec.graph_seed,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.memory_budget,
        spec.query_clients,
    );

    let launch = Launch {
        prsim: &args.prsim,
        graph: &graph_path,
        memory_budget: spec.memory_budget,
    };
    let window = Duration::from_secs_f64(args.seconds);
    let e2e = load::run(&launch, spec, &graph, args.seed, window, dir)
        .map_err(|e| format!("end-to-end run: {e}"))?;

    let mut problems = Vec::new();
    let verbs = accounting(&e2e);
    let (attempted, failed) = verbs
        .iter()
        .fold((0, 0), |(a, f), v| (a + v.attempted, f + v.failed));
    for v in &verbs {
        println!(
            "verb {} attempted={} succeeded={} failed={}",
            v.name,
            v.attempted,
            v.attempted - v.failed,
            v.failed
        );
    }
    println!(
        "error_rate {} ({failed}/{attempted})",
        ratio(failed as f64, attempted as f64)
    );
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    check_updates(&e2e, spec, &mut problems);

    let e2e_metrics = end_to_end_metrics(&e2e);

    // The gate host: what `prsim serve` opens, opened in-process.
    let queries = Queries::new(args.seed, spec.n);
    let open_start = Instant::now();
    let host = EngineHost::open(&graph, &dir.join("gate-wal"), trace::host_options(spec))
        .map_err(|e| e.to_string())?;
    let host_open_s = open_start.elapsed().as_secs_f64();
    gate_replies(&host, &queries, &e2e, spec, &mut problems);

    let mut layers = Metrics::default();
    if args.trace {
        layers.push("setup.host_open_s", host_open_s, "s");
        trace_layers(
            args,
            &host,
            &graph,
            &queries,
            &e2e,
            &e2e_metrics,
            dir,
            &mut layers,
            &mut problems,
        )?;
    }
    host.shutdown().map_err(|e| e.to_string())?;
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        if let Some(hwm) = status.lines().find(|l| l.starts_with("VmHWM:")) {
            println!("benchmark process {hwm}");
        }
    }

    e2e_metrics.print();
    layers.print();
    for p in &problems {
        println!("gate FAILED: {p}");
    }
    let correct = problems.is_empty();
    if correct {
        println!("gate passed");
    }
    let reported = if args.trace { &layers } else { &e2e_metrics };
    Ok((reported.result_json(correct, attempted, failed)?, correct))
}

/// Per-verb operation counts. A query or update fails on a transport
/// error, a timeout or an `err` reply (retryable ones included); an
/// update also fails if no query ever saw it.
fn accounting(e2e: &E2e) -> Vec<Verb> {
    vec![
        Verb {
            name: "query",
            attempted: e2e.queries.len() as u64,
            failed: e2e.queries.iter().filter(|q| !q.ok()).count() as u64,
        },
        Verb {
            name: "update",
            attempted: e2e.updates.len() as u64,
            failed: e2e.updates.iter().filter(|u| u.visible.is_none()).count() as u64,
        },
        // The final `stats`, and one `shutdown` per server start (a
        // failure of either aborts the run before this point).
        Verb {
            name: "stats",
            attempted: 1,
            failed: 0,
        },
        Verb {
            name: "shutdown",
            attempted: load::SETUPS as u64,
            failed: 0,
        },
    ]
}

/// Freshness checks: per-connection `lsn=` never decreases, and the
/// final `stats` has applied exactly the acked updates, none a no-op.
fn check_updates(e2e: &E2e, spec: &Spec, problems: &mut Vec<String>) {
    if e2e.lsn_regressions > 0 {
        problems.push(format!(
            "lsn= decreased {} times on a connection",
            e2e.lsn_regressions
        ));
    }
    let last_ack = e2e.updates.iter().map(|u| u.lsn).max().unwrap_or(0);
    let applied = field_u64(&e2e.final_stats, "applied_lsn");
    if applied != Some(last_ack) {
        problems.push(format!(
            "final applied_lsn {applied:?} != last acked lsn {last_ack}"
        ));
    }
    let noops = field_u64(&e2e.final_stats, "noop_updates");
    if noops != Some(0) {
        problems.push(format!("final noop_updates {noops:?} != 0"));
    }
    if let Updates::Probe(k) = spec.updates {
        if e2e.updates.len() != k {
            problems.push(format!(
                "probe sent {} updates, expected {k}",
                e2e.updates.len()
            ));
        }
    }
}

/// End-to-end metrics of the measured window.
fn end_to_end_metrics(e2e: &E2e) -> Metrics {
    let in_window = |t: Instant| t >= e2e.window_start && t < e2e.window_end;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let rtts: Vec<f64> = e2e
        .queries
        .iter()
        .filter(|q| q.ok() && in_window(q.sent))
        .map(|q| ms(q.done - q.sent))
        .collect();
    // Throughput between the first and the last completion inside the
    // window.
    let mut completions: Vec<Instant> = e2e
        .queries
        .iter()
        .filter(|q| q.ok() && in_window(q.done))
        .map(|q| q.done)
        .collect();
    completions.sort();
    let qps = match (completions.first(), completions.last()) {
        (Some(&first), Some(&last)) if last > first => {
            (completions.len() - 1) as f64 / (last - first).as_secs_f64()
        }
        _ => 0.0,
    };
    let acks = ack_ms(e2e);
    let visible: Vec<f64> = e2e
        .updates
        .iter()
        .filter_map(|u| Some(ms(u.visible? - u.sent)))
        .collect();
    println!(
        "samples query_window={} updates={} setups={}",
        rtts.len(),
        visible.len(),
        e2e.setup_s.len()
    );
    let deciles = |xs: &[f64]| -> String {
        (1..10)
            .map(|d| format!("{:.3}", quantile(xs, d as f64 / 10.0)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("query_rtt_ms deciles: {}", deciles(&rtts));
    println!("update_visible_ms deciles: {}", deciles(&visible));
    println!("update_ack_ms deciles: {}", deciles(&acks));
    println!("update_ack_p50_ms {} ms", quantile(&acks, 0.5));
    let mut m = Metrics::default();
    m.push("setup_s", quantile(&e2e.setup_s, 0.5), "s");
    m.push("query_qps", qps, "1/s");
    m.push("query_p50_ms", quantile(&rtts, 0.5), "ms");
    m.push("query_p90_ms", quantile(&rtts, 0.9), "ms");
    m.push("update_visible_p50_ms", quantile(&visible, 0.5), "ms");
    m.push("update_visible_p90_ms", quantile(&visible, 0.9), "ms");
    m.push("server_peak_rss_mb", e2e.peak_rss_mb, "MB");
    m
}

/// Durable-ack round trips of the acked updates, in ms. Their median is
/// a traced-run metric, not an end-to-end one: measured on a 2-vCPU VM,
/// acks are bimodal (0.3-0.5 ms, or 1-5 ms spread evenly), the slow
/// share drifts between 10% and 60% with the host's load, and over ten
/// seeds the median's spread reached 0.26-0.36 of itself, above the
/// largest bound a regression gate may use (0.25).
fn ack_ms(e2e: &E2e) -> Vec<f64> {
    e2e.updates
        .iter()
        .filter_map(|u| Some((u.acked? - u.sent).as_secs_f64() * 1e3))
        .collect()
}

/// Byte-identity gate: replies served from the boot epoch must equal
/// `protocol::handle_line` on the in-process host for the same line.
/// Read-only workloads must have served their whole window from it.
fn gate_replies(
    host: &EngineHost,
    queries: &Queries,
    e2e: &E2e,
    spec: &Spec,
    problems: &mut Vec<String>,
) {
    let boot: Vec<(u64, &str)> = e2e
        .queries
        .iter()
        .filter_map(|q| {
            let r = q.reply.as_deref().ok()?;
            (field(r, "lsn") == Some("0")).then_some((q.i, r))
        })
        .collect();
    if matches!(spec.updates, Updates::Probe(_)) {
        let window = e2e
            .queries
            .iter()
            .filter(|q| q.sent < e2e.window_end)
            .count();
        let served_boot = e2e
            .queries
            .iter()
            .filter(|q| {
                q.sent < e2e.window_end
                    && q.reply
                        .as_deref()
                        .is_ok_and(|r| field(r, "lsn") == Some("0"))
            })
            .count();
        if served_boot != window {
            problems.push(format!(
                "only {served_boot} of {window} read-only replies came from the boot epoch"
            ));
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let chunk = boot.len().div_ceil(threads).max(1);
    let mismatches: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = boot
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .filter(|(i, got)| protocol::handle_line(host, &queries.line(*i)).0 != *got)
                        .map(|(i, got)| format!("request {i}: served {got:?}"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("gate thread panicked"))
            .collect()
    });
    println!(
        "gate: {} boot-epoch replies compared with protocol::handle_line",
        boot.len()
    );
    if let Some(first) = mismatches.first() {
        problems.push(format!(
            "{} replies differ from protocol::handle_line, first: {first}",
            mismatches.len()
        ));
    }
}

/// The traced run's layers, plus the server-side and coverage metrics
/// that need the end-to-end figures of the same run.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    args: &Args,
    host: &EngineHost,
    graph: &prsim_graph::DiGraph,
    queries: &Queries,
    e2e: &E2e,
    e2e_metrics: &Metrics,
    dir: &Path,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let spec = &args.spec;
    let snap = host.snapshot();
    let index = snap.engine().index().stats();
    m.push("index.size_bytes", index.size_bytes as f64, "bytes");
    m.push("index.hubs", index.hubs as f64, "count");
    m.push("index.entries", index.entries as f64, "count");
    let cache_bytes = snap.engine().walk_cache().map_or(0, |c| c.resident_bytes());
    m.push("walkcache.resident_bytes", cache_bytes as f64, "bytes");
    drop(snap);

    let budget = Duration::from_secs_f64(args.seconds / 4.0);
    trace::replay_queries(host, queries, spec.query_clients.max(2), budget, m)
        .map_err(|e| e.to_string())?;
    m.push(
        "layers.query_coverage",
        ratio(
            m.get("conn.rtt_nclients_us.p50"),
            e2e_metrics.get("query_p50_ms") * 1e3,
        ),
        "ratio",
    );

    let updates = UpdateStream::prefix(graph, spec.update_seed(args.seed), e2e.updates.len());
    let replay = trace::replay_updates(host, graph, spec, &updates, dir, m)?;
    m.push("e2e.update_ack_p50_ms", quantile(&ack_ms(e2e), 0.5), "ms");
    m.push(
        "layers.update_coverage",
        ratio(
            m.get("host.update_ack_us.p50") + m.get("host.sync_us.p50"),
            e2e_metrics.get("update_visible_p50_ms") * 1e3,
        ),
        "ratio",
    );

    let server = |key: &str| field_u64(&e2e.final_stats, key).unwrap_or(0) as f64;
    let acked = e2e.updates.iter().filter(|u| u.acked.is_some()).count() as f64;
    m.push(
        "host.epochs_per_update",
        ratio(server("epoch") - 1.0, acked),
        "ratio",
    );
    m.push("host.busy_rejects", server("busy_rejects"), "count");
    m.push("host.max_queue_depth", server("max_queue_depth"), "count");
    m.push("scrub.cycles", server("scrub_cycles"), "count");
    m.push(
        "scrub.bytes_verified",
        server("scrub_bytes_verified"),
        "bytes",
    );

    // Replay fidelity: the in-process host must end where the served
    // one did, and the refine replay must match the engine's own.
    let ours = host.stats();
    let pairs = [
        ("hubs", ours.hubs as f64),
        ("edges", ours.edges as f64),
        ("applied_updates", ours.totals.applied_updates as f64),
    ];
    for (key, value) in pairs {
        if server(key) != value {
            problems.push(format!(
                "traced run invalid: {key} is {value} in the replay but {} in the served run",
                server(key)
            ));
        }
    }
    if replay.refine_mismatches > 0 {
        problems.push(format!(
            "traced run invalid: {} refine replays differ from UpdateStats.pr_iterations",
            replay.refine_mismatches
        ));
    }
    Ok(())
}
