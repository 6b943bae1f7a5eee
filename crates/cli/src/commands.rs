//! Subcommand implementations.

use prsim_core::pagerank::reverse_pagerank;
use prsim_core::{
    DynamicParams, DynamicPrsim, HubCount, Prsim, PrsimConfig, PrsimIndex, QueryParams, UpdateMode,
};
use prsim_gen::{
    try_barabasi_albert, try_chung_lu_directed, try_chung_lu_undirected, try_erdos_renyi_directed,
    try_planted_partition, ChungLuConfig,
};
use prsim_graph::degrees::{degree_stats, powerlaw_exponent_ccdf_fit, DegreeKind};
use prsim_graph::io::{read_binary_file, read_edge_list_file};
use prsim_graph::DiGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::process::ExitCode;

use crate::args::Args;

/// Top-level usage text.
pub const USAGE: &str = "\
prsim — sublinear single-source SimRank (SIGMOD 2019 reproduction)

USAGE:
  prsim generate <chung-lu|chung-lu-directed|ba|er|sbm> [opts] --out FILE
      common: --seed N (default 42)
      chung-lu[-directed]: --n N --avg-degree D --gamma G [--gamma-in G2]
      ba:  --n N --m-attach M
      er:  --n N --avg-degree D
      sbm: --communities K --size S --p-in P --p-out Q
  prsim convert IN OUT              (.bin = binary, else edge-list text)
  prsim stats GRAPH
  prsim build GRAPH --index FILE [--eps E] [--hubs N|sqrt] [--f32-reserves]
      [--sorted-out FILE] [--paged-index FILE [--page-bytes N]]
      --f32-reserves stores index reserves quantized to f32 (arena ~2/3
      the size; quantization error is charged against eps)
      --paged-index additionally writes the arena as a page-checksummed
      v4 file servable out of core (see query --paged-index)
  prsim query GRAPH --source U [--index FILE] [--eps E] [--top K] [--seed N]
      [--walk-cache B] [--no-walk-cache]
      [--paged-index FILE [--memory-budget B] [--page-hot R]]
      --walk-cache B pre-samples walk terminals/η verdicts for the top-B
      reverse-PageRank nodes (default 256; answers stay honest per query
      but are correlated across queries); --no-walk-cache disables it
      --paged-index serves the arena out of core through a pin/unpin
      buffer pool capped at --memory-budget bytes (default 64 MiB), with
      the top --page-hot hub ranks pinned resident (default 64)
  prsim topk GRAPH --source U [--k K] [--eps E] [--seed N]
  prsim pair GRAPH --u A --v B [--samples N] [--seed N]
  prsim update GRAPH --stream FILE [--mode incremental|rebuild] [--batch K]
      [--eps E] [--hubs N|sqrt] [--drift-budget X] [--compact-threshold N]
      [--probe U] [--seed N] [--out FILE]
      replay an edge-update file (+/- u v per line) through the dynamic
      engine, reporting updates/sec and repair statistics
  prsim serve GRAPH --wal DIR [--listen ADDR] [--segment-bytes N]
      [--eps E] [--hubs N|sqrt] [--walk-cache B] [--no-walk-cache]
      [--queue-depth N] [--queue-bytes N] [--busy-timeout-ms N]
      [--max-clients N] [--max-inflight-queries N] [--max-line-bytes N]
      [--client-timeout-ms N] [--drain-timeout-ms N]
      [--scrub-interval-ms N | --no-scrub]
      [--fault-seed S] [--applier-delay-ms N]
      [--chaos-applier-panic-lsn L]
      [--memory-budget B [--page-bytes N] [--page-hot R]]
      --memory-budget B serves the postings arena out of core: the
      recovered index is demoted to a paged arena file in DIR behind a
      buffer pool hard-capped at B resident bytes; page faults degrade
      the affected queries (they fall back to live backward walks and
      report degraded=true) instead of crashing. B budgets the paged
      arena's base only, not the process: the graph, π, touched
      records, update scratch, epoch copies and the resident overlay
      that repairs append to stay outside it (`stats` reports them as
      mem_* keys)
      resident engine: queries over immutable epoch snapshots, updates
      through a durable fsync-on-commit WAL in DIR (replayed on restart).
      Speaks a line protocol (query/update/sync/stats/health/checkpoint/
      shutdown) on stdin/stdout, or on ADDR with --listen (prints
      `listening <addr>`). TCP serving is concurrent: up to --max-clients
      connections (excess shed with `err retryable overloaded`), at most
      --max-inflight-queries queries executing at once (excess shed the
      same way), --max-line-bytes per request line, --client-timeout-ms
      drops clients that stall. SIGTERM/SIGINT drains gracefully: stop
      accepting, finish in-flight work, final checkpoint, clean WAL
      close, exit 0 — all within --drain-timeout-ms (default 5000). A
      drain that cannot write the final checkpoint prints why and
      exits 3: nothing acked is lost, the next boot replays the WAL.
      A background scrubber re-verifies at-rest checksums every
      --scrub-interval-ms (default 1000; --no-scrub disables), healing
      rot where a redundant copy exists and degrading health otherwise.
      The applier queue is bounded (--queue-depth/--queue-bytes);
      updates past the bound block --busy-timeout-ms then fail
      `err retryable busy`. --fault-seed runs the WAL over deterministic
      fault injection; the remaining --chaos-* / --applier-delay-ms
      flags are test hooks (see README, Failure model)
";

fn load_graph(path: &str) -> Result<DiGraph, String> {
    let result = if path.ends_with(".bin") {
        read_binary_file(path)
    } else {
        read_edge_list_file(path)
    };
    result.map_err(|e| format!("cannot read graph {path}: {e}"))
}

fn save_graph(g: &DiGraph, path: &str) -> Result<(), String> {
    // Serialize by the FINAL path's extension, then write atomically: an
    // interrupted run leaves the old file intact, never a torn one.
    let bytes = if path.ends_with(".bin") {
        prsim_graph::io::to_binary(g).to_vec()
    } else {
        let mut buf = Vec::new();
        prsim_graph::io::write_edge_list(g, &mut buf)
            .map_err(|e| format!("cannot serialize graph for {path}: {e}"))?;
        buf
    };
    write_file_atomic(path, &bytes).map_err(|e| format!("cannot write graph {path}: {e}"))
}

/// Writes `bytes` to `path` via a same-directory temp file + fsync +
/// rename + parent-directory fsync, so readers only ever observe the
/// old or the complete new content and the rename itself survives a
/// power cut (the same discipline the server's WAL checkpoints use —
/// without the directory fsync, the kernel may persist the file data
/// but lose the directory entry, resurrecting the old file after a
/// crash).
fn write_file_atomic(path: &str, bytes: &[u8]) -> Result<(), String> {
    use std::io::Write;
    let tmp = format!("{path}.tmp.{}", std::process::id());
    let result = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        let parent = match Path::new(path).parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(|e| e.to_string())
}

/// `prsim generate` — synthesize a graph.
pub fn generate(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv);
    let model = args
        .positional
        .first()
        .ok_or("missing model (chung-lu | chung-lu-directed | ba | er | sbm)")?;
    let out = args.require("out")?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    let g = match model.as_str() {
        "chung-lu" | "chung-lu-directed" => {
            let n: usize = args.require_parsed("n")?;
            let d: f64 = args.get_parsed("avg-degree", 10.0)?;
            let gamma: f64 = args.get_parsed("gamma", 2.0)?;
            let cfg = ChungLuConfig::new(n, d, gamma, seed);
            let g = if model == "chung-lu" {
                try_chung_lu_undirected(cfg)
            } else {
                let gamma_in: f64 = args.get_parsed("gamma-in", gamma)?;
                try_chung_lu_directed(cfg, gamma_in, seed.wrapping_add(1))
            };
            g.map_err(|e| e.to_string())?
        }
        "ba" => {
            let n: usize = args.require_parsed("n")?;
            let m: usize = args.get_parsed("m-attach", 4)?;
            try_barabasi_albert(n, m, seed).map_err(|e| e.to_string())?
        }
        "er" => {
            let n: usize = args.require_parsed("n")?;
            let d: f64 = args.get_parsed("avg-degree", 10.0)?;
            try_erdos_renyi_directed(n, d / (n as f64 - 1.0).max(1.0), seed)
                .map_err(|e| e.to_string())?
        }
        "sbm" => {
            let communities: usize = args.require_parsed("communities")?;
            let size: usize = args.require_parsed("size")?;
            let p_in: f64 = args.get_parsed("p-in", 0.2)?;
            let p_out: f64 = args.get_parsed("p-out", 0.01)?;
            try_planted_partition(communities, size, p_in, p_out, seed)
                .map_err(|e| e.to_string())?
        }
        other => return Err(format!("unknown model {other:?}")),
    };
    save_graph(&g, out)?;
    println!(
        "wrote {} ({} nodes, {} edges)",
        out,
        g.node_count(),
        g.edge_count()
    );
    Ok(())
}

/// `prsim convert` — transcode between text and binary graph files.
pub fn convert(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv);
    let [input, output] = args.positional.as_slice() else {
        return Err("usage: prsim convert IN OUT".into());
    };
    let g = load_graph(input)?;
    save_graph(&g, output)?;
    println!(
        "converted {input} -> {output} ({} nodes, {} edges)",
        g.node_count(),
        g.edge_count()
    );
    Ok(())
}

/// `prsim stats` — size / degree / power-law report.
pub fn stats(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv);
    let path = args.positional.first().ok_or("usage: prsim stats GRAPH")?;
    let g = load_graph(path)?;
    let gs = prsim_graph::graph_stats(&g);
    println!("graph      : {path}");
    println!("nodes      : {}", gs.nodes);
    println!("edges      : {}", gs.edges);
    println!("avg degree : {:.3}", g.avg_degree());
    println!("density    : {:.3e}", gs.density);
    println!("reciprocity: {:.3}", gs.reciprocity);
    println!(
        "sources/sinks/isolated : {}/{}/{}",
        gs.sources, gs.sinks, gs.isolated
    );
    for (kind, label) in [(DegreeKind::Out, "out"), (DegreeKind::In, "in")] {
        let s = degree_stats(&g, kind);
        let degs = prsim_graph::degrees::degree_sequence(&g, kind);
        let gamma = powerlaw_exponent_ccdf_fit(&degs, 3)
            .map(|x| format!("{x:.2}"))
            .unwrap_or_else(|| "n/a".into());
        println!(
            "{label:>3}-degree : min {} max {} mean {:.2} zeros {} gamma(fit) {}",
            s.min, s.max, s.mean, s.zeros, gamma
        );
    }
    Ok(())
}

fn config_from(args: &Args) -> Result<PrsimConfig, String> {
    let eps: f64 = args.get_parsed("eps", 0.05)?;
    let hubs = match args.get("hubs") {
        None | Some("sqrt") => HubCount::SqrtN,
        Some(raw) => HubCount::Fixed(
            raw.parse()
                .map_err(|_| format!("invalid value {raw:?} for --hubs"))?,
        ),
    };
    let reserve_precision = if args.has_flag("f32-reserves") {
        prsim_core::ReservePrecision::F32
    } else {
        prsim_core::ReservePrecision::F64
    };
    let default_budget = PrsimConfig::default().walk_cache_budget;
    let walk_cache_budget = if args.has_flag("no-walk-cache") {
        if args.get("walk-cache").is_some() {
            return Err("--walk-cache and --no-walk-cache are mutually exclusive".into());
        }
        0
    } else {
        args.get_parsed("walk-cache", default_budget)?
    };
    Ok(PrsimConfig {
        eps,
        hubs,
        query: QueryParams::Practical { c_mult: 3.0 },
        reserve_precision,
        walk_cache_budget,
        ..Default::default()
    })
}

/// `prsim build` — preprocess a graph and persist the index (plus,
/// optionally, the counting-sorted graph the index is valid for).
pub fn build(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv);
    let path = args
        .positional
        .first()
        .ok_or("usage: prsim build GRAPH --index FILE")?;
    let index_path = args.require("index")?;
    let g = load_graph(path)?;
    let config = config_from(&args)?;
    let start = std::time::Instant::now();
    let engine = Prsim::build(g, config).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64();
    write_file_atomic(index_path, &engine.index().to_bytes())
        .map_err(|e| format!("cannot write index {index_path}: {e}"))?;
    if let Some(paged_path) = args.get("paged-index") {
        let page_bytes: u32 =
            args.get_parsed("page-bytes", prsim_core::PagedOptions::default().page_bytes)?;
        engine
            .index()
            .write_paged(&prsim_server::FsStorage, Path::new(paged_path), page_bytes)
            .map_err(|e| format!("cannot write paged index {paged_path}: {e}"))?;
        println!("wrote paged index ({page_bytes}-byte pages) -> {paged_path}");
    }
    if let Some(sorted_out) = args.get("sorted-out") {
        save_graph(engine.graph(), sorted_out)?;
    }
    let precision = match engine.index().precision() {
        prsim_core::ReservePrecision::F64 => "f64",
        prsim_core::ReservePrecision::F32 => "f32",
    };
    println!(
        "built index in {elapsed:.3}s: {} hubs, {} entries ({precision}), {} bytes -> {index_path}",
        engine.index().hub_count(),
        engine.index().entry_count(),
        engine.index().size_bytes()
    );
    Ok(())
}

/// `prsim query` — single-source top-k.
pub fn query(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv);
    let path = args
        .positional
        .first()
        .ok_or("usage: prsim query GRAPH --source U")?;
    let source: u32 = args.require_parsed("source")?;
    let top: usize = args.get_parsed("top", 10)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let repeat: usize = args.get_parsed("repeat", 1)?;
    if repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    let config = config_from(&args)?;

    let mut g = load_graph(path)?;
    if args.get("index").is_some() && args.get("paged-index").is_some() {
        return Err("--index and --paged-index are mutually exclusive".into());
    }
    let engine = match (args.get("index"), args.get("paged-index")) {
        (Some(index_path), None) => {
            if !g.is_out_sorted_by_in_degree() {
                prsim_graph::ordering::sort_out_by_in_degree(&mut g);
            }
            let bytes = std::fs::read(index_path)
                .map_err(|e| format!("cannot read index {index_path}: {e}"))?;
            let index =
                PrsimIndex::from_bytes(&bytes, g.node_count()).map_err(|e| e.to_string())?;
            let pi = reverse_pagerank(&g, config.sqrt_c(), 1e-12, config.max_level);
            Prsim::from_parts(g, pi, index, config).map_err(|e| e.to_string())?
        }
        (None, Some(paged_path)) => {
            // Out-of-core serving: the arena stays in the page file
            // behind a buffer pool whose resident bytes never exceed
            // --memory-budget.
            if !g.is_out_sorted_by_in_degree() {
                prsim_graph::ordering::sort_out_by_in_degree(&mut g);
            }
            let defaults = prsim_core::PagedOptions::default();
            let opts = prsim_core::PagedOptions {
                page_bytes: defaults.page_bytes,
                memory_budget: args.get_parsed("memory-budget", defaults.memory_budget)?,
                hot_ranks: args.get_parsed("page-hot", defaults.hot_ranks)?,
            };
            let index = PrsimIndex::open_paged(
                std::sync::Arc::new(prsim_server::FsStorage),
                Path::new(paged_path),
                g.node_count(),
                &opts,
            )
            .map_err(|e| e.to_string())?;
            let pi = reverse_pagerank(&g, config.sqrt_c(), 1e-12, config.max_level);
            Prsim::from_parts(g, pi, index, config).map_err(|e| e.to_string())?
        }
        _ => Prsim::build(g, config).map_err(|e| e.to_string())?,
    };

    // One workspace reused across repeats: repeat > 1 measures the warm
    // steady-state latency a query server would see (results are
    // bit-identical to a fresh workspace either way).
    let mut ws = prsim_core::QueryWorkspace::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let start = std::time::Instant::now();
    let (scores, stats) = engine
        .try_single_source_with_workspace(source, &mut ws, &mut rng)
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "query node {source}: {:.4}s, {} walks ({} died, {} pair-met), {} backward walks",
        elapsed, stats.walks, stats.died, stats.pair_met, stats.backward_walks
    );
    if let Some(p) = engine.index().paging_stats() {
        println!(
            "paging: resident {} bytes (peak {}), {} hits / {} misses / {} evictions, \
             {} faults, {} fallbacks, degraded={}",
            p.resident_bytes,
            p.peak_resident_bytes,
            p.hits,
            p.misses,
            p.evictions,
            p.faults,
            stats.page_fallbacks,
            stats.degraded
        );
    }
    if repeat > 1 {
        let start = std::time::Instant::now();
        for i in 1..repeat {
            let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
            let _ = engine
                .try_single_source_with_workspace(source, &mut ws, &mut rng)
                .map_err(|e| e.to_string())?;
        }
        let warm = start.elapsed().as_secs_f64() / (repeat - 1) as f64;
        println!(
            "warm repeats: {:.0} us/query over {} runs",
            warm * 1e6,
            repeat - 1
        );
    }
    for (rank, (v, s)) in scores.top_k(top).into_iter().enumerate() {
        println!("{:>3}. {:>8}  {:.6}", rank + 1, v, s);
    }
    Ok(())
}

/// `prsim topk` — adaptive top-k query.
pub fn topk(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv);
    let path = args
        .positional
        .first()
        .ok_or("usage: prsim topk GRAPH --source U [--k K]")?;
    let source: u32 = args.require_parsed("source")?;
    let k: usize = args.get_parsed("k", 10)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let config = config_from(&args)?;
    let g = load_graph(path)?;
    let engine = Prsim::build(g, config).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let start = std::time::Instant::now();
    let res = engine
        .top_k_adaptive(source, k, prsim_core::TopKParams::default(), &mut rng)
        .map_err(|e| e.to_string())?;
    println!(
        "top-{k} of node {source}: {:.4}s, {} samples, converged = {}",
        start.elapsed().as_secs_f64(),
        res.samples_used,
        res.converged
    );
    for (rank, (v, s)) in res.entries.into_iter().enumerate() {
        println!("{:>3}. {:>8}  {:.6}", rank + 1, v, s);
    }
    Ok(())
}

/// `prsim pair` — single-pair Monte-Carlo estimate via the engine.
pub fn pair(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv);
    let path = args
        .positional
        .first()
        .ok_or("usage: prsim pair GRAPH --u A --v B")?;
    let u: u32 = args.require_parsed("u")?;
    let v: u32 = args.require_parsed("v")?;
    let samples: usize = args.get_parsed("samples", 10_000)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let g = load_graph(path)?;
    let config = PrsimConfig {
        hubs: HubCount::Fixed(0),
        query: QueryParams::Explicit { dr: samples, fr: 1 },
        ..Default::default()
    };
    let engine = Prsim::build(g, config).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let s = engine
        .single_pair(u, v, &mut rng)
        .map_err(|e| e.to_string())?;
    println!("s({u},{v}) ≈ {s:.6}  ({samples} walk pairs)");
    Ok(())
}

/// `prsim update` — replay an edge-update stream through the dynamic
/// engine.
pub fn update(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv);
    let path = args
        .positional
        .first()
        .ok_or("usage: prsim update GRAPH --stream FILE")?;
    let stream_path = args.require("stream")?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let config = config_from(&args)?;

    let mode = match args.get("mode").unwrap_or("incremental") {
        "incremental" => {
            if args.get("batch").is_some() {
                return Err("--batch only applies to --mode rebuild".into());
            }
            let defaults = DynamicParams::default();
            UpdateMode::Incremental(DynamicParams {
                drift_budget: args.get_parsed("drift-budget", defaults.drift_budget)?,
                compact_threshold: args
                    .get_parsed("compact-threshold", defaults.compact_threshold)?,
                ..defaults
            })
        }
        "rebuild" => {
            for flag in ["drift-budget", "compact-threshold"] {
                if args.get(flag).is_some() {
                    return Err(format!("--{flag} only applies to --mode incremental"));
                }
            }
            UpdateMode::RebuildOnBatch {
                batch: args.get_parsed("batch", 1)?,
            }
        }
        other => {
            return Err(format!(
                "unknown mode {other:?} (want incremental | rebuild)"
            ))
        }
    };

    let g = load_graph(path)?;
    let updates = prsim_graph::io::read_update_list_file(stream_path)
        .map_err(|e| format!("cannot read update stream {stream_path}: {e}"))?;
    if updates.is_empty() {
        return Err(format!("update stream {stream_path} contains no updates"));
    }

    let build_start = std::time::Instant::now();
    let mut engine = DynamicPrsim::new(&g, config, mode).map_err(|e| e.to_string())?;
    // Rebuild mode builds lazily; force the initial build here so the
    // replay timing (like incremental mode's) excludes it.
    if engine.engine().is_none() {
        engine.refresh().map_err(|e| e.to_string())?;
    }
    let build_secs = build_start.elapsed().as_secs_f64();
    let initial_rebuilds = engine.rebuilds();

    let mut repair_fraction_sum = 0.0;
    let mut applied_with_hubs = 0usize;
    let replay_start = std::time::Instant::now();
    for &up in &updates {
        let stats = engine.apply(up).map_err(|e| e.to_string())?;
        if stats.applied && stats.hub_count > 0 && !stats.rebuilt {
            repair_fraction_sum += stats.repair_fraction;
            applied_with_hubs += 1;
        }
        // Rebuild mode only rebuilds on queries by itself; refresh at
        // every batch boundary so --batch governs replay cost exactly as
        // the paper's amortized contract prescribes. (No-op when
        // incremental: that mode is never stale.)
        if engine.is_stale() {
            engine.refresh().map_err(|e| e.to_string())?;
        }
    }
    let replay_secs = replay_start.elapsed().as_secs_f64();

    let totals = engine.totals();
    println!("initial build  : {build_secs:.3}s");
    println!(
        "replayed       : {} updates ({} applied, {} no-ops) in {replay_secs:.3}s = {:.1} updates/s",
        updates.len(),
        totals.applied_updates,
        totals.noop_updates,
        updates.len() as f64 / replay_secs.max(1e-9),
    );
    println!(
        "graph          : {} nodes, {} edges",
        engine.node_count(),
        engine.edge_count()
    );
    println!(
        "maintenance    : {} hub repairs, {} rebuilds, {} compactions",
        totals.repaired_hubs,
        totals.rebuilds - initial_rebuilds,
        totals.compactions
    );
    if applied_with_hubs > 0 {
        println!(
            "repair fraction: {:.4} mean over {} incremental updates",
            repair_fraction_sum / applied_with_hubs as f64,
            applied_with_hubs
        );
    }

    if let Some(probe) = args.get("probe") {
        let u: u32 = probe
            .parse()
            .map_err(|_| format!("invalid value {probe:?} for --probe"))?;
        let top: usize = args.get_parsed("top", 10)?;
        // A rebuild-mode engine can hold a sub-batch remainder; fold it in
        // so the probe really answers over the fully updated graph.
        if engine.pending_updates() > 0 {
            engine.refresh().map_err(|e| e.to_string())?;
        }
        let start = std::time::Instant::now();
        let (scores, _) = engine
            .single_source(u, &mut StdRng::seed_from_u64(seed))
            .map_err(|e| e.to_string())?;
        println!(
            "probe node {u}  : {:.4}s (fresh against the updated graph)",
            start.elapsed().as_secs_f64()
        );
        for (rank, (v, s)) in scores.top_k(top).into_iter().enumerate() {
            println!("{:>3}. {:>8}  {:.6}", rank + 1, v, s);
        }
    }
    if let Some(out) = args.get("out") {
        // A rebuild-mode engine may still hold buffered updates short of
        // the batch; fold them in so the written graph is current.
        if engine.pending_updates() > 0 {
            engine.refresh().map_err(|e| e.to_string())?;
        }
        let final_graph = engine.engine().expect("engine built after replay").graph();
        save_graph(final_graph, out)?;
        println!("wrote updated graph -> {out}");
    }
    Ok(())
}

/// Exit status of a `prsim serve` that drained on SIGTERM/SIGINT but
/// wrote no final checkpoint: nothing acked is lost, but the next boot
/// replays the WAL past the last checkpoint.
pub const EXIT_DRAINED_REPLAY_NEEDED: u8 = 3;

/// `prsim serve` — resident engine over a durable WAL, speaking the
/// line protocol on stdin/stdout or TCP.
pub fn serve(argv: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(argv);
    let path = args
        .positional
        .first()
        .ok_or("usage: prsim serve GRAPH --wal DIR [--listen ADDR]")?;
    let wal_dir = args.require("wal")?;
    let config = config_from(&args)?;

    let mut options = prsim_server::HostOptions::new(config);
    options.segment_bytes = args.get_parsed("segment-bytes", options.segment_bytes)?;
    options.queue_depth = args.get_parsed("queue-depth", options.queue_depth)?;
    options.queue_bytes = args.get_parsed("queue-bytes", options.queue_bytes)?;
    options.busy_timeout = std::time::Duration::from_millis(
        args.get_parsed("busy-timeout-ms", options.busy_timeout.as_millis() as u64)?,
    );
    // Out-of-core serving: demote the recovered arena to a paged file
    // in the WAL directory under a hard resident-byte ceiling.
    options.memory_budget = match args.get("memory-budget") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("invalid value {v:?} for --memory-budget"))?,
        ),
        None => None,
    };
    options.page_bytes = args.get_parsed("page-bytes", options.page_bytes)?;
    options.page_hot_ranks = args.get_parsed("page-hot", options.page_hot_ranks)?;
    // Chaos hooks, exposed so the CI smoke/chaos jobs can exercise the
    // overload and supervision paths through the real binary.
    options.applier_delay =
        std::time::Duration::from_millis(args.get_parsed("applier-delay-ms", 0u64)?);
    options.applier_panic_at_lsn = match args.get("chaos-applier-panic-lsn") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("invalid value {v:?} for --chaos-applier-panic-lsn"))?,
        ),
        None => None,
    };
    if args.has_flag("no-scrub") && args.get("scrub-interval-ms").is_some() {
        return Err("--scrub-interval-ms and --no-scrub are mutually exclusive".into());
    }
    options.scrub_interval = if args.has_flag("no-scrub") {
        None
    } else {
        match args.get_parsed("scrub-interval-ms", 1000u64)? {
            0 => None,
            ms => Some(std::time::Duration::from_millis(ms)),
        }
    };
    let client_timeout = match args.get_parsed("client-timeout-ms", 0u64)? {
        0 => None,
        ms => Some(std::time::Duration::from_millis(ms)),
    };
    let conn_opts = prsim_server::ConnOptions {
        max_clients: args.get_parsed("max-clients", 64usize)?,
        max_inflight_queries: args.get_parsed("max-inflight-queries", 256usize)?,
        read_timeout: client_timeout,
        max_line_bytes: args.get_parsed("max-line-bytes", 1usize << 20)?,
        drain_timeout: std::time::Duration::from_millis(
            args.get_parsed("drain-timeout-ms", 5000u64)?,
        ),
    };

    let g = load_graph(path)?;
    let start = std::time::Instant::now();
    // --fault-seed runs the WAL on the deterministic fault-injecting
    // storage backend (armed only after recovery, so startup always
    // succeeds): the crash-under-chaos CI job drives this.
    let host = match args.get("fault-seed") {
        Some(v) => {
            let seed: u64 = v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for --fault-seed"))?;
            let faulty = std::sync::Arc::new(prsim_server::FaultyStorage::new_disarmed(
                std::sync::Arc::new(prsim_server::FsStorage),
                prsim_server::FaultPlan::from_seed(seed),
            ));
            let host = prsim_server::EngineHost::open_with_storage(
                &g,
                Path::new(wal_dir),
                options,
                faulty.clone(),
            )
            .map_err(|e| e.to_string())?;
            faulty.set_armed(true);
            eprintln!("fault injection armed: seed={seed}");
            host
        }
        None => prsim_server::EngineHost::open(&g, Path::new(wal_dir), options)
            .map_err(|e| e.to_string())?,
    };
    // The host holds its own copy; the loaded graph is dead weight now.
    drop(g);
    let recovery = host.recovery();
    eprintln!(
        "serving in {:.3}s: {} nodes, {} edges; recovery: checkpoint={} replayed {} records \
         ({} updates), truncated {} bytes",
        start.elapsed().as_secs_f64(),
        host.snapshot().engine().graph().node_count(),
        host.snapshot().engine().graph().edge_count(),
        recovery
            .checkpoint_lsn
            .map(|l| l.to_string())
            .unwrap_or_else(|| "none".into()),
        recovery.replayed_records,
        recovery.replayed_updates,
        recovery.truncated_bytes,
    );
    match args.get("listen") {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| format!("cannot bind {addr}: {e}"))?;
            let local = listener
                .local_addr()
                .map_err(|e| format!("cannot resolve bound address: {e}"))?;
            // Scripts (and the CI crash test) parse this line to learn the
            // ephemeral port when ADDR ends in :0.
            println!("listening {local}");
            // SIGTERM/SIGINT flip the stop flag; the supervisor notices
            // within a poll tick and returns so the host can drain.
            let stop = prsim_server::signal::install_term_handler();
            let summary = prsim_server::conn::serve_supervised(&host, listener, &conn_opts, stop)
                .map_err(|e| e.to_string())?;
            eprintln!(
                "served {} connections ({} shed at --max-clients, {} queries shed at \
                 --max-inflight-queries)",
                summary.connections, summary.overload_rejects, summary.gate_shed
            );
            if summary.shutdown_requested {
                // The `shutdown` verb keeps its historical semantics: the
                // queue is already drained by the applier's own stop path.
                host.shutdown()
                    .map(|()| ExitCode::SUCCESS)
                    .map_err(|e| e.to_string())
            } else {
                // External signal: graceful drain — finish committed
                // work, final checkpoint, clean close, exit 0. Without
                // the final checkpoint the exit status says the next
                // boot replays the WAL.
                match host.drain(conn_opts.drain_timeout) {
                    Ok(info) => {
                        eprintln!(
                            "drained: final checkpoint lsn={} bytes={}",
                            info.lsn, info.bytes
                        );
                        Ok(ExitCode::SUCCESS)
                    }
                    Err(e) => {
                        eprintln!(
                            "drained: no final checkpoint, the next boot replays the WAL: {e}"
                        );
                        Ok(ExitCode::from(EXIT_DRAINED_REPLAY_NEEDED))
                    }
                }
            }
        }
        None => prsim_server::protocol::serve_stdio(&host)
            .map(|()| ExitCode::SUCCESS)
            .map_err(|e| e.to_string()),
    }
}
