//! `query_hot` — the single-source hot-path benchmark behind
//! `BENCH_query.json`.
//!
//! Measures, on the Chung-Lu benchmark family (the same generator family
//! as the paper stand-ins in [`prsim_bench::datasets`]), per graph size:
//!
//! * engine build time,
//! * single-source latency (p50 / p95 / mean over a seeded query set) and
//!   the derived queries-per-second, in **both walk-cache modes** (the
//!   default cached engine and a `walk_cache_budget = 0` engine) and on
//!   the f32 reserve arena,
//! * walk-cache observability: budget, pool count, resident bytes and
//!   terminal/η hit rates over the query set,
//! * the exact work of the seeded query set: its [`QueryStats`] counters
//!   and result-entry count, summed over the first `WORK_QUERIES`
//!   queries,
//! * index memory: live postings, offset-table slots and resident
//!   `size_bytes` for both arena precisions, plus the estimated resident
//!   size of the pre-arena nested `Vec<Vec<Vec<(NodeId, f64)>>>` layout
//!   (16 bytes per entry after padding + 24-byte `Vec` headers) so the
//!   compaction ratio is visible in the committed trajectory,
//! * batch throughput of [`Prsim::batch_single_source`] at requested 1,
//!   2 and 4 threads, recording the *effective* worker count after the
//!   hardware/chunk cap ([`Prsim::effective_batch_threads`]).
//!
//! Everything is seeded, so two runs on the same machine measure the same
//! work — the JSON is machine-comparable, not machine-portable.
//!
//! ```text
//! query_hot [--smoke] [--out PATH] [--check PATH] [--queries N]
//! ```
//!
//! * default: run the full family (5k / 20k / 100k nodes) and write
//!   `BENCH_query.json` in the current directory;
//! * `--smoke`: run only the 5k graph (seconds, for CI); both cache
//!   modes are still measured, so CI covers cached and uncached engines;
//! * `--check PATH`: after running, compare against the committed JSON at
//!   `PATH`; exit non-zero when the file is malformed, the committed row
//!   lacks the work, index-memory, walk-cache or paged fields, the fresh
//!   work differs from the committed work in any counter (work is gated
//!   exactly, time loosely), the fresh single-source p50 regresses by
//!   more than 3x, the fresh f64 `size_bytes` exceeds 1.1x its committed
//!   value, the fresh walk-cache `resident_bytes` exceeds 1.1x its
//!   committed value (memory guardrails), or the paged qps-vs-budget
//!   curve collapses against the committed one. Every run (with or
//!   without `--check`) additionally hard-asserts that the paged buffer
//!   pool's peak resident bytes stay within the memory budget at every
//!   sweep point, and that the paged engine does exactly the resident
//!   engine's work.

use prsim_bench::hot::{hot_bench_config, percentile, HOT_C_MULT};
use prsim_bench::json as mini_json;
use prsim_core::pagerank::reverse_pagerank;
use prsim_core::{
    PagedOptions, Prsim, PrsimConfig, PrsimIndex, QueryStats, QueryWorkspace, ReservePrecision,
    SimRankScores,
};
use prsim_gen::{chung_lu_undirected, ChungLuConfig};
use prsim_graph::NodeId;
use prsim_server::FsStorage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Latency tolerance of `--check`: fail when fresh p50 exceeds 3x the
/// committed p50 for the same dataset.
const CHECK_TOLERANCE: f64 = 3.0;

/// Memory tolerance of `--check`: fail when the fresh f64 arena
/// `size_bytes` (or the walk cache's `resident_bytes`) exceeds 1.1x the
/// committed value (the build is seeded, so any real growth is a layout
/// regression, not noise).
const SIZE_TOLERANCE: f64 = 1.1;

/// Page size of the out-of-core sweep. Small enough that even the 5k
/// smoke arena spans hundreds of pages, so the sweep measures real
/// pin/evict traffic, not a fully-pinned pool.
const PAGED_PAGE_BYTES: u32 = 4096;

/// Budget fractions of the paged sweep, as multiples of the postings
/// blob size. `1.0` caches the whole arena (the paged ceiling); each
/// halving doubles the eviction pressure.
const PAGED_FRACS: &[f64] = &[1.0, 0.5, 0.25, 0.125];

/// Curve tolerance of the paged `--check` gate: at each budget fraction
/// the fresh qps, normalized by the same-run full-budget qps (cancels
/// box drift), must stay within 3x of the committed normalized point —
/// a collapse in the qps-vs-budget curve flags a replacer or pin-path
/// regression. The budget itself is a hard gate: fresh peak resident
/// bytes must never exceed the budget.
const PAGED_CURVE_TOLERANCE: f64 = 3.0;

/// Length of the seeded query-set prefix whose work is recorded and
/// gated exactly (CI's smoke run serves this many queries).
const WORK_QUERIES: usize = 60;

struct DatasetSpec {
    name: &'static str,
    n: usize,
    avg_degree: f64,
    gamma: f64,
    seed: u64,
}

const FAMILY: &[DatasetSpec] = &[
    DatasetSpec {
        name: "chung_lu_5k",
        n: 5_000,
        avg_degree: 8.0,
        gamma: 2.0,
        seed: 42,
    },
    DatasetSpec {
        name: "chung_lu_20k",
        n: 20_000,
        avg_degree: 8.0,
        gamma: 2.0,
        seed: 43,
    },
    DatasetSpec {
        name: "chung_lu_100k",
        n: 100_000,
        avg_degree: 8.0,
        gamma: 2.0,
        seed: 44,
    },
];

struct BatchPoint {
    threads: usize,
    threads_used: usize,
    qps: f64,
}

struct IndexRow {
    hubs: usize,
    entries: usize,
    level_slots: usize,
    size_bytes_f64: usize,
    size_bytes_f32: usize,
    nested_f64_size_bytes: usize,
}

/// Exact work of the seeded query set: the [`QueryStats`] counters and
/// the result-entry count, summed over its first [`WORK_QUERIES`]
/// queries. Everything is seeded, so any difference from the committed
/// sums is a change in what the engine computes, not noise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Work {
    queries: usize,
    walks: usize,
    died: usize,
    pair_met: usize,
    backward_walks: usize,
    backward_cost: usize,
    index_entries: usize,
    cached_terminals: usize,
    cached_eta: usize,
    result_entries: usize,
}

impl Work {
    /// `(JSON key, value)` for every field, in render order.
    fn fields(&self) -> [(&'static str, usize); 10] {
        [
            ("queries", self.queries),
            ("walks", self.walks),
            ("died", self.died),
            ("pair_met", self.pair_met),
            ("backward_walks", self.backward_walks),
            ("backward_cost", self.backward_cost),
            ("index_entries", self.index_entries),
            ("cached_terminals", self.cached_terminals),
            ("cached_eta", self.cached_eta),
            ("result_entries", self.result_entries),
        ]
    }

    fn add(&mut self, stats: &QueryStats, result_entries: usize) {
        self.queries += 1;
        self.walks += stats.walks;
        self.died += stats.died;
        self.pair_met += stats.pair_met;
        self.backward_walks += stats.backward_walks;
        self.backward_cost += stats.backward_cost;
        self.index_entries += stats.index_entries;
        self.cached_terminals += stats.cached_terminals;
        self.cached_eta += stats.cached_eta;
        self.result_entries += result_entries;
    }
}

/// Walk-cache observability and exact work aggregated over one serial
/// run.
#[derive(Default)]
struct CacheAgg {
    walks: usize,
    died: usize,
    term_hits: usize,
    eta_hits: usize,
    work: Work,
}

impl CacheAgg {
    fn term_hit_rate(&self) -> f64 {
        self.term_hits as f64 / self.walks.max(1) as f64
    }

    fn eta_hit_rate(&self) -> f64 {
        self.eta_hits as f64 / (self.walks - self.died).max(1) as f64
    }
}

struct CacheRow {
    budget: usize,
    pools: usize,
    resident_bytes: usize,
    term_hit_rate: f64,
    eta_hit_rate: f64,
}

/// One budget point of the out-of-core sweep: the engine serving the
/// same query set with its postings arena paged under a hard memory
/// budget (`budget_frac` × blob bytes).
struct PagedPoint {
    budget_frac: f64,
    budget_bytes: u64,
    p50_us: f64,
    qps: f64,
    peak_resident_bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

struct BenchRow {
    name: String,
    n: usize,
    m: usize,
    build_ms: f64,
    p50_us: f64,
    p95_us: f64,
    mean_us: f64,
    qps: f64,
    alloc_qps: f64,
    nocache_p50_us: f64,
    nocache_qps: f64,
    f32_p50_us: f64,
    f32_qps: f64,
    work: Work,
    cache: CacheRow,
    index: IndexRow,
    paged: Vec<PagedPoint>,
    batch: Vec<BatchPoint>,
}

/// Consumes the scores enough that the optimizer cannot elide the query.
fn sink(scores: &SimRankScores) -> f64 {
    scores.get(scores.source()) + scores.len() as f64
}

/// Serial latency distribution of the workspace-reused hot path — the
/// steady state of a query server. Returns (sorted latencies µs, qps)
/// and folds per-query stats into `agg`.
fn serial_latencies(
    engine: &Prsim,
    sources: &[NodeId],
    guard: &mut f64,
    agg: &mut CacheAgg,
) -> (Vec<f64>, f64) {
    let mut ws = QueryWorkspace::new();
    // Warmup (touches the index + graph pages, grows the workspace).
    for (i, &u) in sources.iter().take(10).enumerate() {
        let mut rng = StdRng::seed_from_u64(0xDEAD + i as u64);
        *guard += sink(&engine.single_source_with_workspace(u, &mut ws, &mut rng));
    }
    let mut lat_us: Vec<f64> = Vec::with_capacity(sources.len());
    let start = Instant::now();
    for (i, &u) in sources.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(1_000 + i as u64);
        let t = Instant::now();
        let (scores, stats) = engine
            .try_single_source_with_workspace(u, &mut ws, &mut rng)
            .expect("sources pre-checked");
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        *guard += sink(&scores);
        agg.walks += stats.walks;
        agg.died += stats.died;
        agg.term_hits += stats.cached_terminals;
        agg.eta_hits += stats.cached_eta;
        if i < WORK_QUERIES {
            agg.work.add(&stats, scores.len());
        }
    }
    let qps = sources.len() as f64 / start.elapsed().as_secs_f64();
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (lat_us, qps)
}

/// Out-of-core sweep: demote the engine's arena to a v4 page file once,
/// then serve the same seeded query set with the buffer pool capped at
/// each budget fraction of the blob size. The sweep asserts fault-free
/// serving (local disk, no injection), that the pool honors every
/// budget, and that every point does exactly the resident engine's
/// `work` (paging moves bytes, never estimates).
fn run_paged_sweep(
    engine: &Prsim,
    spec: &DatasetSpec,
    sources: &[NodeId],
    work: Work,
) -> Vec<PagedPoint> {
    let dir = std::env::temp_dir().join(format!("prsim_query_hot_paged_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("{}.pages", spec.name));
    engine
        .index()
        .write_paged(&FsStorage, &path, PAGED_PAGE_BYTES)
        .expect("arena demotes");
    let width = match engine.index().precision() {
        ReservePrecision::F64 => 8u64,
        ReservePrecision::F32 => 4,
    };
    let blob_bytes = engine.index().entry_count() as u64 * (4 + width);
    let config = engine.config().clone();
    let sorted = engine.graph().clone();
    let pi = reverse_pagerank(&sorted, config.sqrt_c(), 1e-12, config.max_level);

    let mut guard = 0.0;
    let mut points = Vec::with_capacity(PAGED_FRACS.len());
    for &frac in PAGED_FRACS {
        let budget_bytes = (blob_bytes as f64 * frac) as u64;
        let opts = PagedOptions {
            page_bytes: PAGED_PAGE_BYTES,
            memory_budget: budget_bytes,
            hot_ranks: 0,
        };
        let index = PrsimIndex::open_paged(Arc::new(FsStorage), &path, sorted.node_count(), &opts)
            .expect("budget fraction admits (meta tables outgrew the smallest fraction?)");
        let paged = Prsim::from_parts(sorted.clone(), pi.clone(), index, config.clone())
            .expect("paged engine builds");
        let mut agg = CacheAgg::default();
        let (lat_us, qps) = serial_latencies(&paged, sources, &mut guard, &mut agg);
        let stats = paged.index().paging_stats().expect("engine is paged");
        assert_eq!(stats.faults, 0, "local-disk sweep must be fault-free");
        assert_eq!(
            agg.work, work,
            "{}: paged engine (frac {frac}) did different work than resident",
            spec.name
        );
        assert!(
            stats.peak_resident_bytes <= budget_bytes,
            "{}: pool peak {} B exceeds budget {} B (frac {})",
            spec.name,
            stats.peak_resident_bytes,
            budget_bytes,
            frac
        );
        points.push(PagedPoint {
            budget_frac: frac,
            budget_bytes,
            p50_us: percentile(&lat_us, 0.50),
            qps,
            peak_resident_bytes: stats.peak_resident_bytes,
            hits: stats.hits,
            misses: stats.misses,
            evictions: stats.evictions,
        });
    }
    assert!(guard.is_finite());
    let _ = std::fs::remove_file(&path);
    points
}

/// Resident-size estimate of the pre-arena nested layout for the same
/// postings: `Vec<(u32, f64)>` stores 16 bytes per entry after padding,
/// plus a 24-byte `Vec` header per (hub, level) list and per hub, plus
/// the hub tables.
fn nested_layout_bytes(index: &prsim_core::PrsimIndex, n: usize) -> usize {
    let s = index.stats();
    s.entries * 16 + (s.level_slots + s.hubs) * 24 + s.hubs * 4 + n * 4
}

fn run_dataset(spec: &DatasetSpec, queries: usize) -> BenchRow {
    let graph = chung_lu_undirected(ChungLuConfig::new(
        spec.n,
        spec.avg_degree,
        spec.gamma,
        spec.seed,
    ));
    let n = graph.node_count();
    let m = graph.edge_count();

    let t0 = Instant::now();
    let engine = Prsim::build(graph.clone(), hot_bench_config()).expect("bench config is valid");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Seeded query set: uniform random sources, fixed across runs.
    let mut pick = StdRng::seed_from_u64(spec.seed ^ 0x9E37);
    let sources: Vec<NodeId> = (0..queries)
        .map(|_| pick.gen_range(0..n as NodeId))
        .collect();

    // All f64 measurements run before the other engines exist: their
    // builds would otherwise evict the f64 engine's working set (each
    // engine owns its own graph copy) and skew the serial numbers.
    let mut guard = 0.0;
    let mut agg = CacheAgg::default();
    let (lat_us, qps) = serial_latencies(&engine, &sources, &mut guard, &mut agg);
    let mean_us = lat_us.iter().sum::<f64>() / lat_us.len().max(1) as f64;
    let cache_row = {
        let c = engine.walk_cache().expect("hot config keeps the cache on");
        CacheRow {
            budget: engine.config().walk_cache_budget,
            pools: c.pool_count(),
            resident_bytes: c.resident_bytes(),
            term_hit_rate: agg.term_hit_rate(),
            eta_hit_rate: agg.eta_hit_rate(),
        }
    };

    // Secondary: the allocating entry point (fresh transient workspace
    // per query), i.e. what a naive caller pays.
    let alloc_start = Instant::now();
    for (i, &u) in sources.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(1_000 + i as u64);
        guard += sink(&engine.single_source(u, &mut rng));
    }
    let alloc_qps = sources.len() as f64 / alloc_start.elapsed().as_secs_f64();

    // Batch throughput at requested 1 / 2 / 4 threads; the engine caps
    // the workers it actually spawns, and both counts are recorded.
    let mut batch = Vec::new();
    for threads in [1usize, 2, 4] {
        let t = Instant::now();
        let results = engine
            .batch_single_source(&sources, threads, 77)
            .expect("sources pre-checked");
        let secs = t.elapsed().as_secs_f64();
        guard += results.iter().map(sink).sum::<f64>();
        batch.push(BatchPoint {
            threads,
            threads_used: Prsim::effective_batch_threads(sources.len(), threads),
            qps: sources.len() as f64 / secs,
        });
    }

    // Out-of-core sweep: the same arena served through the paged buffer
    // pool at shrinking hard budgets. Runs after every resident
    // measurement so the paged engines cannot evict the resident
    // working set mid-measurement.
    let paged = run_paged_sweep(&engine, spec, &sources, agg.work);

    // The same engine with the walk cache disabled: the committed
    // trajectory records both modes, and CI's smoke run therefore
    // exercises cached and uncached engines alike.
    let engine_nocache = Prsim::build(
        graph.clone(),
        PrsimConfig {
            walk_cache_budget: 0,
            ..hot_bench_config()
        },
    )
    .expect("bench config is valid");
    let mut nocache_agg = CacheAgg::default();
    let (nc_lat_us, nocache_qps) =
        serial_latencies(&engine_nocache, &sources, &mut guard, &mut nocache_agg);
    assert_eq!(nocache_agg.term_hits, 0, "budget 0 must never hit");
    drop(engine_nocache);

    // The same engine with the compact f32 arena (identical hubs, seeds
    // and sample counts; only the reserve width differs).
    let engine_f32 = Prsim::build(
        graph,
        PrsimConfig {
            reserve_precision: ReservePrecision::F32,
            ..hot_bench_config()
        },
    )
    .expect("bench config is valid");
    let mut f32_agg = CacheAgg::default();
    let (f32_lat_us, f32_qps) = serial_latencies(&engine_f32, &sources, &mut guard, &mut f32_agg);

    assert!(guard.is_finite());
    let stats = engine.index().stats();
    BenchRow {
        name: spec.name.to_string(),
        n,
        m,
        build_ms,
        p50_us: percentile(&lat_us, 0.50),
        p95_us: percentile(&lat_us, 0.95),
        mean_us,
        qps,
        alloc_qps,
        nocache_p50_us: percentile(&nc_lat_us, 0.50),
        nocache_qps,
        f32_p50_us: percentile(&f32_lat_us, 0.50),
        f32_qps,
        work: agg.work,
        cache: cache_row,
        index: IndexRow {
            hubs: stats.hubs,
            entries: stats.entries,
            level_slots: stats.level_slots,
            size_bytes_f64: stats.size_bytes,
            size_bytes_f32: engine_f32.index().stats().size_bytes,
            nested_f64_size_bytes: nested_layout_bytes(engine.index(), n),
        },
        paged,
        batch,
    }
}

/// Baseline blocks of an existing benchmark file (`pre_pr`, `pr3`),
/// re-emitted on regeneration so committed history survives `--out`
/// overwrites.
fn preserved_block(out_path: &str, key: &str) -> Option<String> {
    let existing = std::fs::read_to_string(out_path).ok()?;
    let value = mini_json::parse(&existing).ok()?;
    value.get(key).map(mini_json::render)
}

fn render_json(rows: &[BenchRow], queries: usize, preserved: &[(&str, String)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"query_hot\",\n");
    out.push_str("  \"unit_note\": \"latencies in microseconds, build in milliseconds; seeded and machine-comparable\",\n");
    let cfg = hot_bench_config();
    out.push_str(&format!(
        "  \"config\": {{\"eps\": {}, \"c\": {}, \"query\": \"practical c_mult={}\", \"hubs\": \"sqrt_n\", \"queries_per_dataset\": {queries}}},\n",
        cfg.eps, cfg.c, HOT_C_MULT,
    ));
    out.push_str(&format!(
        "  \"machine\": {{\"cpu_cores\": {}}},\n",
        std::thread::available_parallelism().map_or(0, |p| p.get())
    ));
    for (key, block) in preserved {
        out.push_str(&format!("  \"{key}\": {block},\n"));
    }
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"m\": {}, \"build_ms\": {:.2},\n",
            r.name, r.n, r.m, r.build_ms
        ));
        out.push_str(&format!(
            "     \"single_source\": {{\"p50_us\": {:.1}, \"p95_us\": {:.1}, \"mean_us\": {:.1}, \"qps\": {:.1}, \"alloc_qps\": {:.1}}},\n",
            r.p50_us, r.p95_us, r.mean_us, r.qps, r.alloc_qps
        ));
        out.push_str(&format!(
            "     \"single_source_nocache\": {{\"p50_us\": {:.1}, \"qps\": {:.1}}},\n",
            r.nocache_p50_us, r.nocache_qps
        ));
        out.push_str(&format!(
            "     \"single_source_f32\": {{\"p50_us\": {:.1}, \"qps\": {:.1}}},\n",
            r.f32_p50_us, r.f32_qps
        ));
        let work: Vec<String> = r
            .work
            .fields()
            .iter()
            .map(|(key, value)| format!("\"{key}\": {value}"))
            .collect();
        out.push_str(&format!("     \"work\": {{{}}},\n", work.join(", ")));
        let c = &r.cache;
        out.push_str(&format!(
            "     \"walk_cache\": {{\"budget\": {}, \"pools\": {}, \"resident_bytes\": {}, \"term_hit_rate\": {:.3}, \"eta_hit_rate\": {:.3}}},\n",
            c.budget, c.pools, c.resident_bytes, c.term_hit_rate, c.eta_hit_rate
        ));
        let ix = &r.index;
        out.push_str(&format!(
            "     \"index\": {{\"hubs\": {}, \"entries\": {}, \"level_slots\": {}, \"size_bytes\": {}, \"size_bytes_f32\": {}, \"nested_f64_size_bytes\": {}, \"f32_vs_nested\": {:.3}}},\n",
            ix.hubs,
            ix.entries,
            ix.level_slots,
            ix.size_bytes_f64,
            ix.size_bytes_f32,
            ix.nested_f64_size_bytes,
            ix.size_bytes_f32 as f64 / ix.nested_f64_size_bytes.max(1) as f64
        ));
        out.push_str(&format!(
            "     \"paged\": {{\"page_bytes\": {PAGED_PAGE_BYTES}, \"points\": ["
        ));
        for (j, p) in r.paged.iter().enumerate() {
            out.push_str(&format!(
                "{{\"budget_frac\": {:.3}, \"budget_bytes\": {}, \"p50_us\": {:.1}, \"qps\": {:.1}, \"peak_resident_bytes\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}}}",
                p.budget_frac, p.budget_bytes, p.p50_us, p.qps, p.peak_resident_bytes, p.hits, p.misses, p.evictions
            ));
            if j + 1 < r.paged.len() {
                out.push_str(", ");
            }
        }
        out.push_str("]},\n");
        out.push_str("     \"batch\": [");
        for (j, b) in r.batch.iter().enumerate() {
            out.push_str(&format!(
                "{{\"threads\": {}, \"threads_used\": {}, \"qps\": {:.1}}}",
                b.threads, b.threads_used, b.qps
            ));
            if j + 1 < r.batch.len() {
                out.push_str(", ");
            }
        }
        out.push_str("]}");
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
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_query.json".to_string());
    let check_path = arg_value(&args, "--check");
    let queries: usize = arg_value(&args, "--queries")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 60 } else { 200 });

    let specs: Vec<&DatasetSpec> = if smoke {
        FAMILY.iter().take(1).collect()
    } else {
        FAMILY.iter().collect()
    };

    let mut rows = Vec::new();
    for spec in specs {
        eprintln!("running {} (n = {}) ...", spec.name, spec.n);
        let row = run_dataset(spec, queries);
        eprintln!(
            "  build {:.1} ms | p50 {:.0} us | p95 {:.0} us | {:.0} qps serial ({:.0} nocache, {:.0} f32) | {:.0} qps batch | index {} B (f32 {} B) | cache {} B, hit {:.2}/{:.2}",
            row.build_ms,
            row.p50_us,
            row.p95_us,
            row.qps,
            row.nocache_qps,
            row.f32_qps,
            row.batch.last().map(|b| b.qps).unwrap_or(0.0),
            row.index.size_bytes_f64,
            row.index.size_bytes_f32,
            row.cache.resident_bytes,
            row.cache.term_hit_rate,
            row.cache.eta_hit_rate,
        );
        for p in &row.paged {
            eprintln!(
                "  paged {:>5.3}x budget ({} B): p50 {:.0} us | {:.0} qps | peak {} B | {} hits / {} misses / {} evictions",
                p.budget_frac, p.budget_bytes, p.p50_us, p.qps, p.peak_resident_bytes, p.hits, p.misses, p.evictions,
            );
        }
        rows.push(row);
    }

    let preserved: Vec<(&str, String)> = ["pre_pr", "pr3", "pr4", "pr5"]
        .iter()
        .filter_map(|&k| preserved_block(&out_path, k).map(|b| (k, b)))
        .collect();
    let json = render_json(&rows, queries, &preserved);
    // Self-check: what we write must parse.
    mini_json::parse(&json).expect("query_hot produced malformed JSON");

    if let Some(path) = check_path {
        check_against_baseline(&rows, &path);
    } else {
        std::fs::write(&out_path, &json).expect("cannot write benchmark JSON");
        eprintln!("wrote {out_path}");
    }
}

/// `--check`: compare measured p50 and index size against the committed
/// baseline JSON; the index-memory fields are required to be present.
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
        let committed_p50 = committed_row
            .and_then(|r| r.get("single_source"))
            .and_then(|s| s.get("p50_us"))
            .and_then(mini_json::Value::as_f64);
        match committed_p50 {
            None => {
                eprintln!("FAIL: baseline has no p50_us entry for {}", row.name);
                failures += 1;
            }
            Some(base) if row.p50_us > base * CHECK_TOLERANCE => {
                eprintln!(
                    "FAIL: {} p50 regressed {:.0} us -> {:.0} us (> {CHECK_TOLERANCE}x)",
                    row.name, base, row.p50_us
                );
                failures += 1;
            }
            Some(base) => {
                eprintln!(
                    "OK: {} p50 {:.0} us vs committed {:.0} us",
                    row.name, row.p50_us, base
                );
            }
        }
        // Work gate: the seeded query set's counters and result-entry
        // count must match the committed sums exactly.
        match committed_row.and_then(|r| r.get("work")) {
            None => {
                eprintln!(
                    "FAIL: baseline has no work entry for {} (regenerate BENCH_query.json)",
                    row.name
                );
                failures += 1;
            }
            Some(committed_work) => {
                let mut differs = false;
                for (key, fresh) in row.work.fields() {
                    let base = committed_work.get(key).and_then(mini_json::Value::as_f64);
                    if base != Some(fresh as f64) {
                        let base = base.map_or("nothing".to_string(), |b| b.to_string());
                        eprintln!("FAIL: {} work.{key} is {fresh}, committed {base}", row.name);
                        differs = true;
                    }
                }
                if differs {
                    failures += 1;
                } else {
                    eprintln!(
                        "OK: {} work matches committed ({} queries, {} walks)",
                        row.name, row.work.queries, row.work.walks
                    );
                }
            }
        }
        // Memory guardrail: the committed row must carry the index block
        // and the fresh arena must not have silently grown.
        let committed_size = committed_row
            .and_then(|r| r.get("index"))
            .and_then(|ix| ix.get("size_bytes"))
            .and_then(mini_json::Value::as_f64);
        match committed_size {
            None => {
                eprintln!(
                    "FAIL: baseline has no index.size_bytes entry for {}",
                    row.name
                );
                failures += 1;
            }
            Some(base) if row.index.size_bytes_f64 as f64 > base * SIZE_TOLERANCE => {
                eprintln!(
                    "FAIL: {} index size grew {:.0} B -> {} B (> {SIZE_TOLERANCE}x)",
                    row.name, base, row.index.size_bytes_f64
                );
                failures += 1;
            }
            Some(base) => {
                eprintln!(
                    "OK: {} index {} B vs committed {:.0} B",
                    row.name, row.index.size_bytes_f64, base
                );
            }
        }
        // Out-of-core guardrails. The hard budget gate (fresh peak
        // resident ≤ budget at every fraction) already ran inside
        // `run_paged_sweep`; here the committed row must carry the paged
        // block, and the fresh qps-vs-budget curve — each point
        // normalized by the same-run full-budget point to cancel box
        // drift — must not collapse against the committed curve.
        let committed_paged = committed_row
            .and_then(|r| r.get("paged"))
            .and_then(|p| p.get("points"))
            .and_then(mini_json::Value::as_array);
        match committed_paged {
            None => {
                eprintln!(
                    "FAIL: baseline has no paged.points entry for {} (regenerate BENCH_query.json)",
                    row.name
                );
                failures += 1;
            }
            Some(committed_points) => {
                let norm = |points: &[&PagedPoint]| -> Option<f64> {
                    points.iter().find(|p| p.budget_frac == 1.0).map(|p| p.qps)
                };
                let fresh_refs: Vec<&PagedPoint> = row.paged.iter().collect();
                let fresh_full = norm(&fresh_refs).unwrap_or(0.0);
                let committed_point = |frac: f64, key: &str| -> Option<f64> {
                    committed_points
                        .iter()
                        .find(|p| {
                            p.get("budget_frac").and_then(mini_json::Value::as_f64) == Some(frac)
                        })
                        .and_then(|p| p.get(key))
                        .and_then(mini_json::Value::as_f64)
                };
                let committed_full = committed_point(1.0, "qps").unwrap_or(0.0);
                for p in &row.paged {
                    if p.budget_frac == 1.0 {
                        continue;
                    }
                    let Some(base_qps) = committed_point(p.budget_frac, "qps") else {
                        eprintln!(
                            "FAIL: baseline paged curve for {} lacks budget_frac {}",
                            row.name, p.budget_frac
                        );
                        failures += 1;
                        continue;
                    };
                    if fresh_full <= 0.0 || committed_full <= 0.0 {
                        eprintln!(
                            "FAIL: {} paged curve lacks a full-budget point to normalize by",
                            row.name
                        );
                        failures += 1;
                        break;
                    }
                    let fresh_norm = p.qps / fresh_full;
                    let committed_norm = base_qps / committed_full;
                    if fresh_norm * PAGED_CURVE_TOLERANCE < committed_norm {
                        eprintln!(
                            "FAIL: {} paged qps at {}x budget collapsed: normalized {:.3} vs committed {:.3} (> {PAGED_CURVE_TOLERANCE}x)",
                            row.name, p.budget_frac, fresh_norm, committed_norm
                        );
                        failures += 1;
                    } else {
                        eprintln!(
                            "OK: {} paged qps at {}x budget: normalized {:.3} vs committed {:.3}",
                            row.name, p.budget_frac, fresh_norm, committed_norm
                        );
                    }
                }
            }
        }
        // Walk-cache memory guardrail: the committed row must carry the
        // walk_cache block, and the fresh pools must not have silently
        // grown (builds are seeded, so growth is a sizing regression).
        let committed_cache = committed_row
            .and_then(|r| r.get("walk_cache"))
            .and_then(|c| c.get("resident_bytes"))
            .and_then(mini_json::Value::as_f64);
        match committed_cache {
            None => {
                eprintln!(
                    "FAIL: baseline has no walk_cache.resident_bytes entry for {}",
                    row.name
                );
                failures += 1;
            }
            Some(base) if row.cache.resident_bytes as f64 > base * SIZE_TOLERANCE => {
                eprintln!(
                    "FAIL: {} walk cache grew {:.0} B -> {} B (> {SIZE_TOLERANCE}x)",
                    row.name, base, row.cache.resident_bytes
                );
                failures += 1;
            }
            Some(base) => {
                eprintln!(
                    "OK: {} walk cache {} B vs committed {:.0} B",
                    row.name, row.cache.resident_bytes, base
                );
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
