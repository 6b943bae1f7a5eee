//! `dynamic_hot` — the dynamic-graph hot-path benchmark behind
//! `BENCH_dynamic.json`.
//!
//! Measures, on the same Chung-Lu family as `query_hot`, per graph size:
//!
//! * **incremental** update throughput of [`DynamicPrsim`] in
//!   `Incremental` mode (updates/sec over a seeded insert/delete stream),
//!   plus repair statistics (`mean_repair_fraction` = dirty hubs / hub
//!   count per single-edge update, PageRank refinement iterations,
//!   rebuilds, compactions);
//! * the exact **work** of the stream's first `WORK_UPDATES` updates:
//!   the [`UpdateStats`] counters summed over them, the touch-set entry
//!   count after them, and a fingerprint of the index they leave behind
//!   (FNV-1a over [`PrsimIndex::to_bytes`]: hub order, level counts and
//!   every (hub, level) posting's node ids and reserve bits);
//! * **query freshness**: the latency from an update arriving to a fully
//!   fresh single-source answer (apply + query, p50/p95);
//! * **rebuild** baseline: the same engine in `RebuildOnBatch {{ batch: 1 }}`
//!   mode — the paper's literal contract — and the derived `speedup`;
//! * **serve**: sustained query throughput through `prsim-server`'s
//!   epoch-snapshot host, idle vs. under a concurrent WAL-backed update
//!   stream — the contention case snapshot isolation exists for. Queries
//!   run on the caller thread against `Arc`-swapped snapshots while a
//!   writer thread streams durable update batches through a deliberately
//!   tight admission queue; the block records both rates, the epochs
//!   published, the update throughput sustained *during* the query
//!   window, plus overload telemetry: `BUSY` rejections the writer
//!   retried through, the deepest the applier queue got, and p99
//!   single-query latency under contention.
//! * **concurrent_clients**: `--clients N` real TCP clients querying
//!   through the connection supervisor at once, with one additional
//!   client connected but deliberately stalled for the whole window.
//!   Per-client p99 round-trip latency goes into the JSON — a stalled
//!   connection inflating any of them is a head-of-line-blocking
//!   regression.
//!
//! Everything is seeded, so two runs on the same machine measure the same
//! work — the JSON is machine-comparable, not machine-portable.
//!
//! ```text
//! dynamic_hot [--smoke] [--out PATH] [--check PATH] [--updates N] [--clients N]
//! ```
//!
//! * default: run the full family (5k / 20k / 100k nodes) and write
//!   `BENCH_dynamic.json` in the current directory;
//! * `--smoke`: run only the 5k graph (seconds, for CI);
//! * `--check PATH`: after running, compare against the same-named
//!   dataset inside the committed JSON at `PATH`; exit non-zero when
//!   either file is malformed, the update work differs from the committed
//!   work in any field (work is gated exactly, so `--updates` must be at
//!   least `WORK_UPDATES`), or incremental updates/sec regresses by more
//!   than 3x.

use prsim_bench::hot::{hot_bench_config, percentile, HOT_C_MULT};
use prsim_bench::json as mini_json;
use prsim_core::{DynamicParams, DynamicPrsim, PrsimIndex, UpdateMode, UpdateStats};
use prsim_gen::{chung_lu_undirected, ChungLuConfig};
use prsim_graph::{EdgeUpdate, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Instant;

/// Throughput tolerance of `--check`: fail when fresh incremental
/// updates/sec drops below 1/3 of the committed value.
const CHECK_TOLERANCE: f64 = 3.0;

/// Length of the seeded update-stream prefix whose work is recorded and
/// gated exactly (CI's smoke run applies this many).
const WORK_UPDATES: usize = 30;

struct DatasetSpec {
    name: &'static str,
    n: usize,
    avg_degree: f64,
    gamma: f64,
    seed: u64,
    /// Rebuild-mode updates measured (each costs a full build).
    rebuild_updates: usize,
}

const FAMILY: &[DatasetSpec] = &[
    DatasetSpec {
        name: "chung_lu_5k",
        n: 5_000,
        avg_degree: 8.0,
        gamma: 2.0,
        seed: 42,
        rebuild_updates: 10,
    },
    DatasetSpec {
        name: "chung_lu_20k",
        n: 20_000,
        avg_degree: 8.0,
        gamma: 2.0,
        seed: 43,
        rebuild_updates: 6,
    },
    DatasetSpec {
        name: "chung_lu_100k",
        n: 100_000,
        avg_degree: 8.0,
        gamma: 2.0,
        seed: 44,
        rebuild_updates: 4,
    },
];

/// Exact work of the update stream's first [`WORK_UPDATES`] updates.
/// Everything is seeded, so any difference from the committed values is
/// a change in what the engine computes, not noise.
#[derive(Debug, Default)]
struct UpdateWork {
    updates: usize,
    applied: usize,
    touched_hubs: usize,
    pr_iterations: usize,
    rebuilt: usize,
    compacted: usize,
    index_compacted: usize,
    /// Touch-set entries after the last update of the window.
    touch_entries: usize,
    /// [`index_fingerprint`] after the last update of the window.
    index_fingerprint: String,
}

impl UpdateWork {
    /// `(JSON key, value)` for every counter, in render order.
    fn counters(&self) -> [(&'static str, usize); 8] {
        [
            ("updates", self.updates),
            ("applied", self.applied),
            ("touched_hubs", self.touched_hubs),
            ("pr_iterations", self.pr_iterations),
            ("rebuilt", self.rebuilt),
            ("compacted", self.compacted),
            ("index_compacted", self.index_compacted),
            ("touch_entries", self.touch_entries),
        ]
    }

    fn add(&mut self, stats: &UpdateStats) {
        self.updates += 1;
        self.applied += usize::from(stats.applied);
        self.touched_hubs += stats.touched_hubs;
        self.pr_iterations += stats.pr_iterations;
        self.rebuilt += usize::from(stats.rebuilt);
        self.compacted += usize::from(stats.compacted);
        self.index_compacted += usize::from(stats.index_compacted);
    }
}

/// FNV-1a (64-bit) over the index's canonical serialization, as hex:
/// equal exactly when the hub order and every (hub, level) posting list,
/// reserve bits included, are equal.
fn index_fingerprint(index: &PrsimIndex) -> String {
    let hash = index
        .to_bytes()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    format!("{hash:016x}")
}

struct BenchRow {
    name: String,
    n: usize,
    m: usize,
    build_ms: f64,
    /// `None` when fewer than [`WORK_UPDATES`] updates ran.
    work: Option<UpdateWork>,
    inc_updates_per_sec: f64,
    inc_applied: usize,
    mean_repair_fraction: f64,
    max_repair_fraction: f64,
    mean_pr_iterations: f64,
    rebuilds: usize,
    compactions: usize,
    freshness_p50_ms: f64,
    freshness_p95_ms: f64,
    reb_updates_per_sec: f64,
    reb_applied: usize,
    speedup: f64,
    serve: ServeRow,
    concurrent: ClientsRow,
}

/// The `serve` scenario's measurements.
struct ServeRow {
    /// Queries answered per second with no writer running.
    qps_idle: f64,
    /// Queries answered per second while the writer streams batches.
    qps_under_updates: f64,
    /// Ratio under/idle (1.0 = updates never block queries).
    qps_retained: f64,
    /// Epochs the applier published during the contended window.
    epochs_published: u64,
    /// Updates the writer pushed through the WAL during that window.
    updates_during: u64,
    /// Durable update throughput sustained while queries ran.
    concurrent_updates_per_sec: f64,
    /// `BUSY` rejections the bounded admission queue handed the writer
    /// (each one retried until admitted).
    busy_rejects: u64,
    /// Deepest the applier queue got, in batches.
    max_queue_depth: u64,
    /// p99 single-query latency during the contended window, ms.
    p99_query_ms: f64,
}

/// The `--clients N` TCP sweep: N concurrently querying clients through
/// the connection supervisor, plus one deliberately stalled client that
/// holds its slot open for the whole window (the no-head-of-line-
/// blocking check — its presence must not inflate anyone's p99).
struct ClientsRow {
    /// Actively querying clients.
    clients: usize,
    /// Stalled byte-free connections held open during the window.
    stalled: usize,
    /// Per-client p99 round-trip latency, ms (one entry per client).
    per_client_p99_ms: Vec<f64>,
    /// Aggregate queries per second across all active clients.
    qps_total: f64,
}

fn run_clients_sweep(
    graph: &prsim_graph::DiGraph,
    spec: &DatasetSpec,
    clients: usize,
    queries: usize,
) -> ClientsRow {
    use prsim_server::{conn, ConnOptions, EngineHost, HostOptions};
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};

    let wal_dir = std::env::temp_dir().join(format!(
        "prsim_bench_clients_{}_{}",
        spec.name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let host = EngineHost::open(graph, &wal_dir, HostOptions::new(hot_bench_config()))
        .expect("bench config is valid");
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("bound address");
    let stop = AtomicBool::new(false);
    let opts = ConnOptions {
        max_clients: clients + 1, // room for the staller
        ..ConnOptions::default()
    };
    let n = graph.node_count() as NodeId;

    let mut per_client_p99_ms = Vec::new();
    let mut qps_total = 0.0;
    std::thread::scope(|scope| {
        let server =
            scope.spawn(|| conn::serve_supervised(&host, listener, &opts, &stop).expect("serves"));
        // The staller takes its slot first and never sends a byte.
        let staller = TcpStream::connect(addr).expect("staller connects");
        let t = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("client connects");
                    let _ = stream.set_nodelay(true);
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut writer = stream;
                    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xC11E ^ c as u64);
                    let mut lat_ms = Vec::with_capacity(queries);
                    let mut line = String::new();
                    for i in 0..queries {
                        let u = rng.gen_range(0..n);
                        let tq = Instant::now();
                        writeln!(
                            writer,
                            "query {u} top=8 seed={}",
                            u64::from(u) ^ ((c as u64) << 32) ^ i as u64
                        )
                        .expect("request written");
                        line.clear();
                        reader.read_line(&mut line).expect("response read");
                        lat_ms.push(tq.elapsed().as_secs_f64() * 1e3);
                        assert!(line.starts_with("ok "), "query failed: {line}");
                    }
                    lat_ms
                })
            })
            .collect();
        let mut lats: Vec<Vec<f64>> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect();
        let window_s = t.elapsed().as_secs_f64();
        drop(staller);
        stop.store(true, Ordering::Release);
        server.join().expect("supervisor thread");
        for lat in &mut lats {
            lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            per_client_p99_ms.push(percentile(lat, 0.99));
        }
        qps_total = (clients * queries) as f64 / window_s.max(1e-12);
    });
    host.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&wal_dir);

    ClientsRow {
        clients,
        stalled: 1,
        per_client_p99_ms,
        qps_total,
    }
}

/// Seeded single-edge update stream: alternating deletes of live edges
/// and inserts of fresh non-edges, every one guaranteed to apply.
struct StreamGen {
    live: Vec<(NodeId, NodeId)>,
    live_set: BTreeSet<(NodeId, NodeId)>,
    n: NodeId,
    rng: StdRng,
    step: usize,
}

impl StreamGen {
    fn new(edges: Vec<(NodeId, NodeId)>, n: usize, seed: u64) -> Self {
        let live_set = edges.iter().copied().collect();
        StreamGen {
            live: edges,
            live_set,
            n: n as NodeId,
            rng: StdRng::seed_from_u64(seed),
            step: 0,
        }
    }

    fn next(&mut self) -> EdgeUpdate {
        self.step += 1;
        if self.step % 2 == 0 && !self.live.is_empty() {
            let i = self.rng.gen_range(0..self.live.len());
            let (u, v) = self.live.swap_remove(i);
            self.live_set.remove(&(u, v));
            EdgeUpdate::Delete(u, v)
        } else {
            loop {
                let u = self.rng.gen_range(0..self.n);
                let v = self.rng.gen_range(0..self.n);
                if u != v && !self.live_set.contains(&(u, v)) {
                    self.live.push((u, v));
                    self.live_set.insert((u, v));
                    return EdgeUpdate::Insert(u, v);
                }
            }
        }
    }
}

/// Sustained-qps-under-concurrent-updates scenario: queries against the
/// epoch-snapshot host, first idle, then with a writer thread streaming
/// durable batches through the WAL the whole time.
fn run_serve(
    graph: &prsim_graph::DiGraph,
    edges: Vec<(NodeId, NodeId)>,
    spec: &DatasetSpec,
    queries: usize,
) -> ServeRow {
    use prsim_server::{EngineHost, HostOptions};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let wal_dir = std::env::temp_dir().join(format!(
        "prsim_bench_serve_{}_{}",
        spec.name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&wal_dir);
    // A deliberately tight admission bound so the bench exercises (and
    // records) the backpressure path instead of hiding it behind a deep
    // queue. The writer retries BUSY, so nothing is lost.
    let mut options = HostOptions::new(hot_bench_config());
    options.queue_depth = 4;
    options.busy_timeout = std::time::Duration::from_millis(1);
    let host = EngineHost::open(graph, &wal_dir, options).expect("bench config is valid");
    let n = graph.node_count() as NodeId;

    let run_queries = |tag: u64| -> f64 {
        let mut rng = StdRng::seed_from_u64(spec.seed ^ tag);
        let mut guard = 0.0f64;
        let t = Instant::now();
        for _ in 0..queries {
            let u = rng.gen_range(0..n);
            let snap = host.snapshot();
            let (scores, _) = snap.query(u, u64::from(u) ^ tag).expect("u in range");
            guard += scores.get(u);
        }
        assert!(guard.is_finite());
        queries as f64 / t.elapsed().as_secs_f64()
    };

    let qps_idle = run_queries(0x1D7E);

    // The contended window must genuinely overlap durable writes: on a
    // starved box the nominal query count can finish before the writer
    // thread is ever scheduled, so the query loop keeps going until the
    // writer has committed MIN_BATCHES. The writer in turn caps itself
    // at MAX_BATCHES so the post-window applier drain stays bounded.
    const MIN_BATCHES: u64 = 4;
    const MAX_BATCHES: u64 = 25;
    const BATCH: usize = 4;
    let stop = AtomicBool::new(false);
    let committed = AtomicU64::new(0);
    let before = host.stats();
    let mut qps_under_updates = 0.0;
    let mut window_s = 0.0;
    let mut lat_ms: Vec<f64> = Vec::new();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut gen = StreamGen::new(edges, n as usize, spec.seed ^ 0x5E7E);
            while !stop.load(Ordering::Acquire) && committed.load(Ordering::Acquire) < MAX_BATCHES {
                let batch: Vec<EdgeUpdate> = (0..BATCH).map(|_| gen.next()).collect();
                loop {
                    match host.update(batch.clone()) {
                        Ok(_) => break,
                        Err(e) if e.retryable() => continue,
                        Err(e) => panic!("updates stay in range: {e}"),
                    }
                }
                committed.fetch_add(1, Ordering::Release);
            }
        });
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xC0DE);
        let mut guard = 0.0f64;
        let mut ran = 0usize;
        let t = Instant::now();
        while ran < queries || committed.load(Ordering::Acquire) < MIN_BATCHES {
            let u = rng.gen_range(0..n);
            let tq = Instant::now();
            let snap = host.snapshot();
            let (scores, _) = snap.query(u, u64::from(u) ^ 0xC0DE).expect("u in range");
            lat_ms.push(tq.elapsed().as_secs_f64() * 1e3);
            guard += scores.get(u);
            ran += 1;
        }
        window_s = t.elapsed().as_secs_f64();
        assert!(guard.is_finite());
        qps_under_updates = ran as f64 / window_s;
        stop.store(true, Ordering::Release);
        writer.join().expect("writer thread");
    });
    host.sync().expect("applier drains");
    let after = host.stats();
    host.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&wal_dir);

    let updates_during = committed.load(Ordering::Acquire) * BATCH as u64;
    lat_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    ServeRow {
        qps_idle,
        qps_under_updates,
        qps_retained: qps_under_updates / qps_idle.max(1e-12),
        epochs_published: after.epoch - before.epoch,
        updates_during,
        concurrent_updates_per_sec: updates_during as f64 / window_s.max(1e-12),
        busy_rejects: after.busy_rejects - before.busy_rejects,
        max_queue_depth: after.max_queue_depth as u64,
        p99_query_ms: percentile(&lat_ms, 0.99),
    }
}

fn run_dataset(spec: &DatasetSpec, updates: usize, clients: usize) -> BenchRow {
    let graph = chung_lu_undirected(ChungLuConfig::new(
        spec.n,
        spec.avg_degree,
        spec.gamma,
        spec.seed,
    ));
    let n = graph.node_count();
    let m = graph.edge_count();
    let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();

    // Incremental engine.
    let t0 = Instant::now();
    let mut inc = DynamicPrsim::new(
        &graph,
        hot_bench_config(),
        UpdateMode::Incremental(DynamicParams::default()),
    )
    .expect("bench config is valid");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Phase 1: update throughput.
    let mut gen = StreamGen::new(edges.clone(), n, spec.seed ^ 0xD15C);
    let mut repair_fractions: Vec<f64> = Vec::with_capacity(updates);
    let mut pr_iters = 0usize;
    let mut rebuilds_during = 0usize;
    let mut window = UpdateWork::default();
    let mut work = None;
    let mut untimed_secs = 0.0;
    let thru_start = Instant::now();
    for i in 0..updates {
        let up = gen.next();
        let stats = inc.apply(up).expect("stream updates are in range");
        assert!(stats.applied, "generated stream must always apply");
        if i < WORK_UPDATES {
            window.add(&stats);
            if i + 1 == WORK_UPDATES {
                let t = Instant::now();
                window.touch_entries = inc.touch_sets().entry_count();
                let engine = inc.engine().expect("incremental engine is built");
                window.index_fingerprint = index_fingerprint(engine.index());
                work = Some(std::mem::take(&mut window));
                untimed_secs += t.elapsed().as_secs_f64();
            }
        }
        pr_iters += stats.pr_iterations;
        if stats.rebuilt {
            rebuilds_during += 1;
        } else {
            repair_fractions.push(stats.repair_fraction);
        }
    }
    let thru_secs = thru_start.elapsed().as_secs_f64() - untimed_secs;
    let inc_updates_per_sec = updates as f64 / thru_secs;
    let mean_repair_fraction =
        repair_fractions.iter().sum::<f64>() / repair_fractions.len().max(1) as f64;
    let max_repair_fraction = repair_fractions.iter().copied().fold(0.0, f64::max);

    // Phase 2: query freshness (update arrival -> fresh answer).
    let probes = (updates / 4).clamp(5, 20);
    let mut freshness_ms: Vec<f64> = Vec::with_capacity(probes);
    let mut guard = 0.0f64;
    for i in 0..probes {
        let up = gen.next();
        let t = Instant::now();
        let stats = inc.apply(up).expect("stream updates are in range");
        let mut rng = StdRng::seed_from_u64(0xF2E5 + i as u64);
        let u = rng.gen_range(0..inc.node_count() as NodeId);
        let (scores, _) = inc.single_source(u, &mut rng).expect("u in range");
        freshness_ms.push(t.elapsed().as_secs_f64() * 1e3);
        guard += scores.get(u) + stats.repair_fraction;
    }
    freshness_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let totals = inc.totals();

    // Phase 3: rebuild-per-batch baseline (batch = 1, the paper's k = 1
    // point: every update is followed by a full rebuild before the next
    // answer is fresh).
    let mut reb = DynamicPrsim::new(
        &graph,
        hot_bench_config(),
        UpdateMode::RebuildOnBatch { batch: 1 },
    )
    .expect("bench config is valid");
    let mut gen2 = StreamGen::new(edges.clone(), n, spec.seed ^ 0xD15C);
    let reb_start = Instant::now();
    for _ in 0..spec.rebuild_updates {
        let up = gen2.next();
        let stats = reb.apply(up).expect("stream updates are in range");
        assert!(stats.applied);
        reb.refresh().expect("rebuild succeeds");
    }
    let reb_secs = reb_start.elapsed().as_secs_f64();
    let reb_updates_per_sec = spec.rebuild_updates as f64 / reb_secs;

    // Phase 4: the serving host under concurrent updates.
    let serve = run_serve(&graph, edges, spec, updates.clamp(20, 60));

    // Phase 5: concurrent TCP clients through the supervisor, with one
    // stalled connection holding a slot the whole time.
    let concurrent = run_clients_sweep(&graph, spec, clients, updates.clamp(20, 60));

    assert!(guard.is_finite());
    BenchRow {
        name: spec.name.to_string(),
        n,
        m,
        build_ms,
        work,
        inc_updates_per_sec,
        inc_applied: updates,
        mean_repair_fraction,
        max_repair_fraction,
        mean_pr_iterations: pr_iters as f64 / updates.max(1) as f64,
        rebuilds: rebuilds_during,
        compactions: totals.compactions,
        freshness_p50_ms: percentile(&freshness_ms, 0.50),
        freshness_p95_ms: percentile(&freshness_ms, 0.95),
        reb_updates_per_sec,
        reb_applied: spec.rebuild_updates,
        speedup: inc_updates_per_sec / reb_updates_per_sec,
        serve,
        concurrent,
    }
}

/// `pre_pr` baseline block of an existing benchmark file, re-emitted on
/// regeneration so a committed pre-PR record survives `--out` overwrites.
fn preserved_pre_pr(out_path: &str) -> Option<String> {
    let existing = std::fs::read_to_string(out_path).ok()?;
    let value = mini_json::parse(&existing).ok()?;
    value.get("pre_pr").map(mini_json::render)
}

fn render_json(rows: &[BenchRow], updates: usize, pre_pr: Option<&str>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"dynamic_hot\",\n");
    out.push_str("  \"unit_note\": \"updates/sec; freshness = apply+query latency in milliseconds; seeded and machine-comparable\",\n");
    let cfg = hot_bench_config();
    let params = DynamicParams::default();
    out.push_str(&format!(
        "  \"config\": {{\"eps\": {}, \"c\": {}, \"query\": \"practical c_mult={}\", \"hubs\": \"sqrt_n\", \"drift_budget\": {}, \"updates_per_dataset\": {updates}, \"rebuild_batch\": 1}},\n",
        cfg.eps, cfg.c, HOT_C_MULT, params.drift_budget,
    ));
    out.push_str(&format!(
        "  \"machine\": {{\"cpu_cores\": {}}},\n",
        std::thread::available_parallelism().map_or(0, |p| p.get())
    ));
    if let Some(block) = pre_pr {
        out.push_str(&format!("  \"pre_pr\": {block},\n"));
    }
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        // The serve/concurrent blocks ride on the same row; --check
        // ignores them, so adding them stays backward-compatible with
        // committed baselines.
        let per_client = r
            .concurrent
            .per_client_p99_ms
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(", ");
        let work = r.work.as_ref().map_or(String::new(), |w| {
            let counters: Vec<String> = w
                .counters()
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            format!(
                " \"work\": {{{}, \"index_fingerprint\": \"{}\"}},",
                counters.join(", "),
                w.index_fingerprint
            )
        });
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"m\": {}, \"build_ms\": {:.2},{work} \"incremental\": {{\"updates_per_sec\": {:.2}, \"applied\": {}, \"mean_repair_fraction\": {:.4}, \"max_repair_fraction\": {:.4}, \"mean_pr_iterations\": {:.2}, \"rebuilds\": {}, \"compactions\": {}, \"freshness_p50_ms\": {:.2}, \"freshness_p95_ms\": {:.2}}}, \"rebuild\": {{\"updates_per_sec\": {:.3}, \"applied\": {}}}, \"speedup\": {:.1}, \"serve\": {{\"qps_idle\": {:.1}, \"qps_under_updates\": {:.1}, \"qps_retained\": {:.3}, \"epochs_published\": {}, \"updates_during\": {}, \"concurrent_updates_per_sec\": {:.1}, \"busy_rejects\": {}, \"max_queue_depth\": {}, \"p99_query_ms\": {:.2}}}, \"concurrent_clients\": {{\"clients\": {}, \"stalled_clients\": {}, \"per_client_p99_ms\": [{per_client}], \"qps_total\": {:.1}}}}}",
            r.name,
            r.n,
            r.m,
            r.build_ms,
            r.inc_updates_per_sec,
            r.inc_applied,
            r.mean_repair_fraction,
            r.max_repair_fraction,
            r.mean_pr_iterations,
            r.rebuilds,
            r.compactions,
            r.freshness_p50_ms,
            r.freshness_p95_ms,
            r.reb_updates_per_sec,
            r.reb_applied,
            r.speedup,
            r.serve.qps_idle,
            r.serve.qps_under_updates,
            r.serve.qps_retained,
            r.serve.epochs_published,
            r.serve.updates_during,
            r.serve.concurrent_updates_per_sec,
            r.serve.busy_rejects,
            r.serve.max_queue_depth,
            r.serve.p99_query_ms,
            r.concurrent.clients,
            r.concurrent.stalled,
            r.concurrent.qps_total,
        ));
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_dynamic.json".to_string());
    let check_path = arg_value(&args, "--check");
    let updates: usize = arg_value(&args, "--updates")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 30 } else { 60 });
    let clients: usize = arg_value(&args, "--clients")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
        .max(1);

    let specs: Vec<&DatasetSpec> = if smoke {
        FAMILY.iter().take(1).collect()
    } else {
        FAMILY.iter().collect()
    };

    let mut rows = Vec::new();
    for spec in specs {
        eprintln!("running {} (n = {}) ...", spec.name, spec.n);
        let row = run_dataset(spec, updates, clients);
        eprintln!(
            "  build {:.0} ms | incremental {:.1} u/s (repair {:.3} mean) | rebuild {:.2} u/s | speedup {:.1}x | freshness p50 {:.1} ms",
            row.build_ms,
            row.inc_updates_per_sec,
            row.mean_repair_fraction,
            row.reb_updates_per_sec,
            row.speedup,
            row.freshness_p50_ms,
        );
        rows.push(row);
    }

    let pre_pr = preserved_pre_pr(&out_path);
    let json = render_json(&rows, updates, pre_pr.as_deref());
    // Self-check: what we write must parse.
    mini_json::parse(&json).expect("dynamic_hot produced malformed JSON");

    if let Some(path) = check_path {
        check_against_baseline(&rows, &path);
    } else {
        std::fs::write(&out_path, &json).expect("cannot write benchmark JSON");
        eprintln!("wrote {out_path}");
    }
}

/// `--check`: compare the update work (exactly) and the measured
/// incremental updates/sec against the committed baseline JSON.
fn check_against_baseline(rows: &[BenchRow], path: &str) {
    let committed = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read committed baseline {path}: {e}"));
    let value = mini_json::parse(&committed)
        .unwrap_or_else(|e| panic!("committed baseline {path} is malformed JSON: {e}"));
    let results = value
        .get("results")
        .and_then(mini_json::Value::as_array)
        .expect("committed baseline lacks a results array");

    let mut failures = 0usize;
    for row in rows {
        let committed_row = results
            .iter()
            .find(|r| r.get("name").and_then(mini_json::Value::as_str) == Some(&row.name));
        if !check_work(row, committed_row.and_then(|r| r.get("work"))) {
            failures += 1;
        }
        let committed_ups = committed_row
            .and_then(|r| r.get("incremental"))
            .and_then(|s| s.get("updates_per_sec"))
            .and_then(mini_json::Value::as_f64);
        match committed_ups {
            None => {
                eprintln!(
                    "FAIL: baseline has no incremental updates_per_sec entry for {}",
                    row.name
                );
                failures += 1;
            }
            Some(base) if row.inc_updates_per_sec < base / CHECK_TOLERANCE => {
                eprintln!(
                    "FAIL: {} incremental throughput regressed {:.1} u/s -> {:.1} u/s (> {CHECK_TOLERANCE}x)",
                    row.name, base, row.inc_updates_per_sec
                );
                failures += 1;
            }
            Some(base) => {
                eprintln!(
                    "OK: {} incremental {:.1} u/s vs committed {:.1} u/s",
                    row.name, row.inc_updates_per_sec, base
                );
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// The exact update-work gate of `--check`: every counter and the index
/// fingerprint must equal the committed values. Returns whether it held.
fn check_work(row: &BenchRow, committed: Option<&mini_json::Value>) -> bool {
    let Some(work) = &row.work else {
        eprintln!(
            "FAIL: {} ran fewer than {WORK_UPDATES} updates, so its work is unmeasured (pass --updates {WORK_UPDATES} or more)",
            row.name
        );
        return false;
    };
    let Some(committed) = committed else {
        eprintln!(
            "FAIL: baseline has no work entry for {} (regenerate BENCH_dynamic.json)",
            row.name
        );
        return false;
    };
    let mut holds = true;
    for (key, fresh) in work.counters() {
        let base = committed.get(key).and_then(mini_json::Value::as_f64);
        if base != Some(fresh as f64) {
            let base = base.map_or("nothing".to_string(), |b| b.to_string());
            eprintln!("FAIL: {} work.{key} is {fresh}, committed {base}", row.name);
            holds = false;
        }
    }
    let base = committed
        .get("index_fingerprint")
        .and_then(mini_json::Value::as_str);
    if base != Some(work.index_fingerprint.as_str()) {
        eprintln!(
            "FAIL: {} work.index_fingerprint is {}, committed {}",
            row.name,
            work.index_fingerprint,
            base.unwrap_or("nothing")
        );
        holds = false;
    }
    if holds {
        eprintln!(
            "OK: {} work matches committed ({} updates, {} touched hubs, index {})",
            row.name, work.updates, work.touched_hubs, work.index_fingerprint
        );
    }
    holds
}
