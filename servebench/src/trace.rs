//! The traced run: replays a workload's seeded requests in-process,
//! through each layer's public entry point in turn, timing every call.
//!
//! Query layers, outermost last: the engine with a reused workspace,
//! the engine with a fresh one, an epoch snapshot, the line protocol,
//! and the TCP supervisor with one and with several clients. They run
//! interleaved — each round sends the next chunk of the request stream
//! through every layer, in an order that rotates per round — so drift
//! and cache warmth fall evenly on all of them.
//!
//! Update layers: one update at a time through the WAL, the host's ack
//! and apply paths, a benchmark-owned dynamic engine, the PageRank
//! refine, the engine clone and the snapshot publish.

use std::hint::black_box;
use std::io;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use prsim_core::pagerank::refine_reverse_pagerank;
use prsim_core::{
    DynamicParams, DynamicPrsim, PagedOptions, PrsimConfig, QueryStats, QueryWorkspace,
};
use prsim_graph::{DiGraph, EdgeUpdate};
use prsim_server::wal::Wal;
use prsim_server::{
    conn, protocol, ConnOptions, EngineHost, EpochSnapshot, FsStorage, HostOptions, SnapshotHandle,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::load::Client;
use crate::report::{mean, quantile, ratio, Metrics};
use crate::workload::{Queries, Spec};

/// Requests per layer per round.
const CHUNK: u64 = 32;
/// Requests replayed with a counting generator for the RNG share.
const RNG_SAMPLE: u64 = 256;

/// Times one call in microseconds.
fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// `StdRng` that counts the words drawn from it.
struct CountingRng {
    inner: StdRng,
    draws: u64,
}

impl RngCore for CountingRng {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// The host options `prsim serve` runs with by default, plus the
/// workload's memory budget.
pub fn host_options(spec: &Spec) -> HostOptions {
    let mut opts = HostOptions::new(PrsimConfig::default());
    opts.memory_budget = spec.memory_budget;
    opts.scrub_interval = Some(Duration::from_millis(1000));
    opts
}

/// Per-layer samples of the query replay, in microseconds.
#[derive(Default)]
struct QuerySamples {
    reused: Vec<f64>,
    fresh: Vec<f64>,
    snapshot: Vec<f64>,
    handle_line: Vec<f64>,
    rtt_1: Vec<f64>,
    rtt_n: Vec<f64>,
    /// Wall time of the n-client layer, seconds.
    wall_n: f64,
    stats: Vec<QueryStats>,
    entries: Vec<usize>,
}

/// Replays the query stream through every query layer for `budget`
/// and records the query-path metrics.
pub fn replay_queries(
    host: &EngineHost,
    queries: &Queries,
    clients: usize,
    budget: Duration,
    m: &mut Metrics,
) -> io::Result<()> {
    let snap = host.snapshot();
    let engine = snap.engine();
    let paging_before = engine.index().paging_stats().unwrap_or_default();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let stop = AtomicBool::new(false);
    let mut s = QuerySamples::default();
    let mut rounds = 0u64;

    std::thread::scope(|scope| -> io::Result<()> {
        let server =
            scope.spawn(|| conn::serve_supervised(host, listener, &ConnOptions::default(), &stop));
        let replayed = (|| -> io::Result<()> {
            let mut conns = (0..clients)
                .map(|_| Client::connect(addr))
                .collect::<io::Result<Vec<_>>>()?;
            let mut ws = QueryWorkspace::new();
            let deadline = Instant::now() + budget;
            while Instant::now() < deadline {
                let ids: Vec<u64> = (rounds * CHUNK..(rounds + 1) * CHUNK).collect();
                for k in 0..6 {
                    match (k + rounds) % 6 {
                        0 => {
                            for &i in &ids {
                                let (u, seed) = queries.request(i);
                                let mut rng = StdRng::seed_from_u64(seed);
                                let (r, us) = time_us(|| {
                                    engine
                                        .try_single_source_with_workspace(u, &mut ws, &mut rng)
                                        .map(|(scores, stats)| (scores.len(), stats))
                                });
                                let (entries, stats) = r.map_err(io::Error::other)?;
                                s.reused.push(us);
                                s.stats.push(stats);
                                s.entries.push(entries);
                            }
                        }
                        1 => {
                            for &i in &ids {
                                let (u, seed) = queries.request(i);
                                let mut rng = StdRng::seed_from_u64(seed);
                                let (r, us) = time_us(|| {
                                    black_box(engine.try_single_source(u, &mut rng)).is_ok()
                                });
                                check(r, "engine query")?;
                                s.fresh.push(us);
                            }
                        }
                        2 => {
                            for &i in &ids {
                                let (u, seed) = queries.request(i);
                                let (r, us) = time_us(|| {
                                    black_box(host.snapshot().query_with_deadline(u, seed, None))
                                        .is_ok()
                                });
                                check(r, "snapshot query")?;
                                s.snapshot.push(us);
                            }
                        }
                        3 => {
                            for &i in &ids {
                                let line = queries.line(i);
                                let (reply, us) = time_us(|| protocol::handle_line(host, &line).0);
                                check(reply.starts_with("ok "), "handle_line")?;
                                s.handle_line.push(us);
                            }
                        }
                        4 => {
                            for &i in &ids {
                                let line = queries.line(i);
                                let (reply, us) = time_us(|| conns[0].call(&line));
                                check(reply?.starts_with("ok "), "1-client query")?;
                                s.rtt_1.push(us);
                            }
                        }
                        _ => {
                            let (rtts, wall) = concurrent_round(&mut conns, queries, &ids)?;
                            s.rtt_n.extend(rtts);
                            s.wall_n += wall;
                        }
                    }
                }
                rounds += 1;
            }
            Ok(())
        })();
        stop.store(true, Ordering::SeqCst);
        server.join().expect("supervisor panicked")?;
        replayed
    })?;

    let paging_after = engine.index().paging_stats().unwrap_or_default();
    let n = s.reused.len() as f64;
    println!("trace: {rounds} rounds x {CHUNK} requests per query layer, {clients} clients in the n-client layer");

    m.push_timing("engine.query_reused_ws_us", &s.reused, "us");
    m.push_timing("engine.query_fresh_ws_us", &s.fresh, "us");
    m.push_timing("snapshot.query_us", &s.snapshot, "us");
    m.push_timing("protocol.handle_line_us", &s.handle_line, "us");
    m.push_timing("conn.rtt_1client_us", &s.rtt_1, "us");
    m.push_timing("conn.rtt_nclients_us", &s.rtt_n, "us");
    m.push(
        "conn.qps_nclients",
        ratio(s.rtt_n.len() as f64, s.wall_n),
        "1/s",
    );
    m.push("engine.qps_reused_ws", ratio(1e6, mean(&s.reused)), "1/s");

    // Self times telescope over means: their sum plus the innermost
    // layer is the n-client round trip exactly.
    let (reused, fresh, snapshot) = (mean(&s.reused), mean(&s.fresh), mean(&s.snapshot));
    let (handle, rtt1, rttn) = (mean(&s.handle_line), mean(&s.rtt_1), mean(&s.rtt_n));
    m.push("workspace.self_us", fresh - reused, "us");
    m.push("snapshot.self_us", snapshot - fresh, "us");
    m.push("protocol.self_us", handle - snapshot, "us");
    m.push("conn.self_us", rtt1 - handle, "us");
    m.push("conn.contention_us", rttn - rtt1, "us");
    let telescoped = reused
        + (fresh - reused)
        + (snapshot - fresh)
        + (handle - snapshot)
        + (rtt1 - handle)
        + (rttn - rtt1);
    println!("trace: engine {reused:.1} + self times = {telescoped:.1} us; n-client rtt mean {rttn:.1} us");

    let sum = |f: fn(&QueryStats) -> usize| s.stats.iter().map(f).sum::<usize>() as f64;
    let walks = sum(|q| q.walks);
    let survived = walks - sum(|q| q.died);
    m.push("engine.walks", walks / n, "count");
    m.push("engine.pair_met", sum(|q| q.pair_met) / n, "count");
    m.push(
        "engine.backward_walks",
        sum(|q| q.backward_walks) / n,
        "count",
    );
    m.push(
        "engine.backward_cost",
        sum(|q| q.backward_cost) / n,
        "count",
    );
    m.push(
        "engine.index_entries",
        sum(|q| q.index_entries) / n,
        "count",
    );
    m.push(
        "engine.cached_terminals",
        sum(|q| q.cached_terminals) / n,
        "count",
    );
    m.push("engine.cached_eta", sum(|q| q.cached_eta) / n, "count");
    m.push(
        "engine.page_fallbacks",
        sum(|q| q.page_fallbacks) / n,
        "count",
    );
    m.push(
        "engine.degraded_frac",
        sum(|q| usize::from(q.degraded)) / n,
        "ratio",
    );
    m.push(
        "engine.result_entries",
        s.entries.iter().sum::<usize>() as f64 / n,
        "count",
    );
    m.push(
        "walkcache.term_hit_rate",
        ratio(sum(|q| q.cached_terminals), walks),
        "ratio",
    );
    m.push(
        "walkcache.eta_hit_rate",
        ratio(sum(|q| q.cached_eta), survived),
        "ratio",
    );

    let hits = paging_after.hits - paging_before.hits;
    let misses = paging_after.misses - paging_before.misses;
    m.push("paging.hits", hits as f64, "count");
    m.push("paging.misses", misses as f64, "count");
    m.push(
        "paging.hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    m.push(
        "paging.evictions",
        (paging_after.evictions - paging_before.evictions) as f64,
        "count",
    );
    m.push(
        "paging.faults",
        (paging_after.faults - paging_before.faults) as f64,
        "count",
    );
    m.push(
        "paging.peak_resident_bytes",
        paging_after.peak_resident_bytes as f64,
        "bytes",
    );

    let (draws, draw_us) = rng_share(engine, queries)?;
    m.push("rng.draws_per_query", draws, "count");
    m.push("rng.draw_us_per_query", draw_us, "us");
    m.push("rng.share", ratio(draw_us, reused), "ratio");
    Ok(())
}

fn check(ok: bool, what: &str) -> io::Result<()> {
    if ok {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "{what} failed during the traced replay"
        )))
    }
}

/// Sends one chunk through all clients at once (request `j` of the
/// chunk goes to client `j mod clients`). Returns each request's round
/// trip in microseconds and the chunk's wall time in seconds.
fn concurrent_round(
    conns: &mut [Client],
    queries: &Queries,
    ids: &[u64],
) -> io::Result<(Vec<f64>, f64)> {
    let n = conns.len();
    let barrier = Barrier::new(n);
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let barrier = &barrier;
                scope.spawn(move || -> io::Result<(Vec<f64>, Instant, Instant)> {
                    let lines: Vec<String> = ids
                        .iter()
                        .skip(c)
                        .step_by(n)
                        .map(|&i| queries.line(i))
                        .collect();
                    barrier.wait();
                    let start = Instant::now();
                    let mut rtts = Vec::with_capacity(lines.len());
                    for line in &lines {
                        let (reply, us) = time_us(|| conn.call(line));
                        check(reply?.starts_with("ok "), "n-client query")?;
                        rtts.push(us);
                    }
                    Ok((rtts, start, Instant::now()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay client panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    let start = per_client
        .iter()
        .map(|p| p.1)
        .min()
        .expect("at least one client");
    let end = per_client
        .iter()
        .map(|p| p.2)
        .max()
        .expect("at least one client");
    let rtts = per_client.into_iter().flat_map(|p| p.0).collect();
    Ok((rtts, (end - start).as_secs_f64()))
}

/// Measures the RNG's share of a query: words drawn per query (through
/// a counting wrapper around the engine's `StdRng`), and the time that
/// many bare `StdRng` draws take.
fn rng_share(engine: &prsim_core::Prsim, queries: &Queries) -> io::Result<(f64, f64)> {
    let mut ws = QueryWorkspace::new();
    let mut draws = 0u64;
    for i in 0..RNG_SAMPLE {
        let (u, seed) = queries.request(i);
        let mut rng = CountingRng {
            inner: StdRng::seed_from_u64(seed),
            draws: 0,
        };
        engine
            .try_single_source_with_workspace(u, &mut ws, &mut rng)
            .map_err(io::Error::other)?;
        draws += rng.draws;
    }
    let mut per_query_us = Vec::new();
    for rep in 0..5 {
        let mut rng = StdRng::seed_from_u64(rep);
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..draws {
            acc ^= rng.next_u64();
        }
        black_box(acc);
        per_query_us.push(t.elapsed().as_secs_f64() * 1e6 / RNG_SAMPLE as f64);
    }
    Ok((
        draws as f64 / RNG_SAMPLE as f64,
        quantile(&per_query_us, 0.5),
    ))
}

/// What the update replay found, for the fidelity check.
pub struct UpdateReplay {
    /// Updates whose replayed refine ran a different iteration count
    /// than `UpdateStats::pr_iterations` reported.
    pub refine_mismatches: usize,
}

/// Replays `updates` one at a time through every update layer and
/// records the update-path and engine-build metrics.
pub fn replay_updates(
    host: &EngineHost,
    graph: &DiGraph,
    spec: &Spec,
    updates: &[EdgeUpdate],
    work: &Path,
    m: &mut Metrics,
) -> Result<UpdateReplay, String> {
    let opts = host_options(spec);
    let (mut wal, _) =
        Wal::open(work.join("trace-wal"), opts.segment_bytes, 0).map_err(|e| e.to_string())?;
    let (dynamic, build_s) = time_us(|| DynamicPrsim::new_incremental(graph, opts.config.clone()));
    let mut dynamic = dynamic.map_err(|e| e.to_string())?;
    m.push("setup.engine_build_s", build_s / 1e6, "s");
    if let Some(budget) = spec.memory_budget {
        let paged = PagedOptions {
            page_bytes: opts.page_bytes,
            memory_budget: budget,
            hot_ranks: opts.page_hot_ranks,
        };
        dynamic
            .page_out_index(Arc::new(FsStorage), &work.join("trace-arena.pages"), &paged)
            .map_err(|e| e.to_string())?;
    }
    let boot = dynamic.engine().expect("engine built").clone();
    let handle = SnapshotHandle::new(EpochSnapshot::new(1, 0, boot));
    let params = DynamicParams::default();
    let sqrt_c = opts.config.sqrt_c();

    let mut t = UpdateTimes::default();
    let mut refine_mismatches = 0;
    let mut stats = Vec::with_capacity(updates.len());
    for (k, &update) in updates.iter().enumerate() {
        let (r, us) = time_us(|| wal.append(&[update]));
        r.map_err(|e| format!("wal append: {e}"))?;
        t.wal.push(us);
        let (r, us) = time_us(|| host.update(vec![update]));
        r.map_err(|e| format!("host update: {e}"))?;
        t.ack.push(us);
        let (r, us) = time_us(|| host.sync());
        r.map_err(|e| format!("host sync: {e}"))?;
        t.sync.push(us);

        let mut pi = dynamic
            .engine()
            .expect("engine built")
            .reverse_pagerank()
            .to_vec();
        let (r, us) = time_us(|| dynamic.apply(update));
        let st = r.map_err(|e| format!("dynamic apply: {e}"))?;
        t.apply.push(us);
        let engine = dynamic.engine().expect("engine built");
        let (outcome, us) = time_us(|| {
            refine_reverse_pagerank(
                engine.graph(),
                sqrt_c,
                params.pr_tol,
                params.pr_max_iter,
                &mut pi,
            )
        });
        t.refine.push(us);
        if outcome.iterations != st.pr_iterations {
            refine_mismatches += 1;
        }
        let (clone, us) = time_us(|| engine.clone());
        t.clone.push(us);
        let next = Arc::new(EpochSnapshot::new(k as u64 + 2, k as u64 + 1, clone));
        let ((), us) = time_us(|| handle.publish(next));
        t.publish.push(us);
        stats.push(st);
    }

    m.push_timing("wal.append_us", &t.wal, "us");
    m.push_timing("host.update_ack_us", &t.ack, "us");
    m.push_timing("host.sync_us", &t.sync, "us");
    m.push_timing("dynamic.apply_us", &t.apply, "us");
    m.push_timing("pagerank.refine_us", &t.refine, "us");
    m.push(
        "dynamic.apply_rest_us",
        mean(&t.apply) - mean(&t.refine),
        "us",
    );
    m.push_timing("engine.clone_us", &t.clone, "us");
    m.push_timing("snapshot.publish_us", &t.publish, "us");

    let n = stats.len() as f64;
    let avg = |f: fn(&prsim_core::UpdateStats) -> f64| ratio(stats.iter().map(f).sum::<f64>(), n);
    m.push(
        "dynamic.touched_hubs",
        avg(|s| s.touched_hubs as f64),
        "count",
    );
    m.push(
        "dynamic.repair_fraction",
        avg(|s| s.repair_fraction),
        "ratio",
    );
    m.push(
        "dynamic.pr_iterations",
        avg(|s| s.pr_iterations as f64),
        "count",
    );
    m.push(
        "dynamic.cache_invalidated_pools",
        avg(|s| s.cache_invalidated_pools as f64),
        "count",
    );
    m.push(
        "dynamic.rebuilds",
        stats.iter().filter(|s| s.rebuilt).count() as f64,
        "count",
    );
    m.push(
        "dynamic.compactions",
        stats.iter().filter(|s| s.compacted).count() as f64,
        "count",
    );
    m.push(
        "dynamic.index_compactions",
        stats.iter().filter(|s| s.index_compacted).count() as f64,
        "count",
    );
    Ok(UpdateReplay { refine_mismatches })
}

/// Per-layer samples of the update replay, in microseconds.
#[derive(Default)]
struct UpdateTimes {
    wal: Vec<f64>,
    ack: Vec<f64>,
    sync: Vec<f64>,
    apply: Vec<f64>,
    refine: Vec<f64>,
    clone: Vec<f64>,
    publish: Vec<f64>,
}
