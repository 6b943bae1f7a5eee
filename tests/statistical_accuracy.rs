//! Statistical accuracy tier: PRSim single-source estimates vs the exact
//! SimRank of the power method, on graphs small enough for an `O(n²)`
//! ground truth.
//!
//! The sample budget is derived from a Hoeffding-style bound rather than
//! guessed: the query's sampling noise concentrates like an average of
//! `d_r` bounded contributions, so
//! `d_r = ln(2·n·probes/δ) / (2·(ε/2)²)` makes
//! `P(any probed entry deviates by more than ε/2) ≤ δ`, leaving the other
//! `ε/2` of the budget for the deterministic (backward-search residue and
//! truncation) error. Every RNG is seeded, so the suite is a fixed
//! computation — the bound is what makes the *chosen seed* representative
//! rather than lucky, and δ = 1e-3 means a re-seed would still pass 99.9%
//! of the time. No retries, no tolerance slop beyond ε itself.

use prsim::baselines::power_method;
use prsim::core::{DynamicPrsim, HubCount, Prsim, PrsimConfig, QueryParams, ReservePrecision};
use prsim::graph::DiGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every engine in this suite keeps the walk cache **off** unless a test
/// explicitly opts in: the cached-walk regimes below assert the cache's
/// own accuracy, while the rest of the suite pins the live sampler.
const NO_CACHE: usize = 0;

const C: f64 = 0.6;
const EPS: f64 = 0.1;
const DELTA: f64 = 1e-3;

/// Hoeffding-style sample count: mean of `d_r` [0,1]-bounded draws stays
/// within `t` of its expectation w.p. `1 − 2·exp(−2·d_r·t²)`; union-bound
/// over `entries` probed entries and solve for `d_r` at `t = ε/2`.
fn hoeffding_dr(entries: usize, eps: f64, delta: f64) -> usize {
    let t = eps / 2.0;
    ((2.0 * entries as f64 / delta).ln() / (2.0 * t * t)).ceil() as usize
}

fn accuracy_config(dr: usize, fr: usize) -> PrsimConfig {
    PrsimConfig {
        c: C,
        eps: EPS,
        query: QueryParams::Explicit { dr, fr },
        walk_cache_budget: NO_CACHE,
        ..Default::default()
    }
}

/// Asserts max-abs error of `engine` vs exact SimRank over `sources`.
fn assert_within_eps(engine: &Prsim, g: &DiGraph, sources: &[u32], seed: u64) {
    let exact = power_method(g, C, 1e-12, 200);
    let mut worst: f64 = 0.0;
    let mut worst_at = (0u32, 0u32);
    for &u in sources {
        let mut rng = StdRng::seed_from_u64(seed ^ u as u64);
        let scores = engine.single_source(u, &mut rng);
        for v in 0..g.node_count() as u32 {
            let err = (scores.get(v) - exact.get(u, v)).abs();
            if err > worst {
                worst = err;
                worst_at = (u, v);
            }
        }
    }
    assert!(
        worst <= EPS,
        "max |ŝ − s| = {worst} at {worst_at:?} exceeds ε = {EPS}"
    );
}

#[test]
fn single_source_beats_eps_on_undirected_power_law() {
    let g = prsim::gen::chung_lu_undirected(prsim::gen::ChungLuConfig::new(60, 5.0, 2.0, 101));
    let sources = [0u32, 17, 59];
    let dr = hoeffding_dr(sources.len() * g.node_count(), EPS, DELTA);
    let engine = Prsim::build(g.clone(), accuracy_config(dr, 1)).unwrap();
    assert_within_eps(&engine, &g, &sources, 0xACC);
}

#[test]
fn single_source_beats_eps_on_directed_graph() {
    let g =
        prsim::gen::chung_lu_directed(prsim::gen::ChungLuConfig::new(50, 4.0, 1.9, 102), 2.3, 103);
    let sources = [3u32, 25, 49];
    let dr = hoeffding_dr(sources.len() * g.node_count(), EPS, DELTA);
    let engine = Prsim::build(g.clone(), accuracy_config(dr, 1)).unwrap();
    assert_within_eps(&engine, &g, &sources, 0xACD);
}

#[test]
fn median_trick_rounds_also_beat_eps() {
    // f_r > 1 splits the same budget over median-of-means rounds; the
    // median path must meet the same ε.
    let g = prsim::gen::chung_lu_undirected(prsim::gen::ChungLuConfig::new(40, 4.0, 2.2, 104));
    let sources = [0u32, 20, 39];
    let dr = hoeffding_dr(sources.len() * g.node_count(), EPS, DELTA);
    let engine = Prsim::build(g.clone(), accuracy_config(dr, 3)).unwrap();
    assert_within_eps(&engine, &g, &sources, 0xACE);
}

#[test]
fn f32_reserve_regime_beats_eps_at_the_same_sample_counts() {
    // The quantized-arena regime: reserves stored as f32 perturb each
    // index contribution by a relative 2⁻²⁴ ≈ 6e-8 — orders of magnitude
    // inside the ε/2 deterministic half of the budget — so the engine
    // must meet the *same* Hoeffding-derived bound at the *same* d_r as
    // the f64 engine, with no extra samples and no tolerance slop.
    let g = prsim::gen::chung_lu_undirected(prsim::gen::ChungLuConfig::new(60, 5.0, 2.0, 101));
    let sources = [0u32, 17, 59];
    let dr = hoeffding_dr(sources.len() * g.node_count(), EPS, DELTA);
    let config = PrsimConfig {
        reserve_precision: ReservePrecision::F32,
        // Force every terminal within reach of a hub through the index so
        // the quantized postings actually carry the estimate.
        hubs: HubCount::Fixed(g.node_count()),
        ..accuracy_config(dr, 1)
    };
    let engine = Prsim::build(g.clone(), config).unwrap();
    assert_eq!(
        engine.index().precision(),
        ReservePrecision::F32,
        "config flag must reach the arena"
    );
    assert_within_eps(&engine, &g, &sources, 0xACC);

    // Same seeds, f64 vs f32 engines: the realized estimates may differ
    // only by the quantization term, far below statistical noise.
    let wide = Prsim::build(
        g.clone(),
        PrsimConfig {
            hubs: HubCount::Fixed(g.node_count()),
            ..accuracy_config(dr, 1)
        },
    )
    .unwrap();
    for &u in &sources {
        use rand::{rngs::StdRng, SeedableRng};
        let a = engine.single_source(u, &mut StdRng::seed_from_u64(0xACC ^ u as u64));
        let b = wide.single_source(u, &mut StdRng::seed_from_u64(0xACC ^ u as u64));
        let diff = a.max_abs_diff(&b);
        assert!(
            diff < 1e-5,
            "f32 vs f64 engines diverge by {diff} at source {u}"
        );
    }
}

#[test]
fn cached_walk_regime_beats_eps() {
    // The terminal-sample cache substitutes pre-drawn walk remainders and
    // η verdicts for live sampling. Every node is cached here (budget ≥
    // n), so the whole walk phase runs off the pools — the estimates must
    // meet the *same* Hoeffding-derived bound at the *same* d_r as live
    // sampling, because each query's draws are an honest without-
    // replacement window over i.i.d. pool samples.
    let g = prsim::gen::chung_lu_undirected(prsim::gen::ChungLuConfig::new(60, 5.0, 2.0, 101));
    let sources = [0u32, 17, 59];
    let dr = hoeffding_dr(sources.len() * g.node_count(), EPS, DELTA);
    let config = PrsimConfig {
        walk_cache_budget: g.node_count(),
        ..accuracy_config(dr, 1)
    };
    let engine = Prsim::build(g.clone(), config).unwrap();
    // The cache must actually be carrying the walk phase.
    let (_, stats) = engine
        .try_single_source(0, &mut StdRng::seed_from_u64(1))
        .unwrap();
    assert!(
        stats.cached_terminals > 0,
        "fully cached engine must serve terminal draws from pools"
    );
    assert!(
        stats.cached_eta > 0,
        "fully cached engine must serve eta verdicts from pools"
    );
    assert_within_eps(&engine, &g, &sources, 0xACC);
}

#[test]
fn cached_walk_regime_beats_eps_with_f32_reserves() {
    // Cache and quantized arena together: both error sources (pool
    // correlation is zero *within* a query; f32 rounding is ≤ 2⁻²⁴
    // relative) must still fit the same ε with the same sample counts.
    let g = prsim::gen::chung_lu_undirected(prsim::gen::ChungLuConfig::new(60, 5.0, 2.0, 101));
    let sources = [0u32, 17, 59];
    let dr = hoeffding_dr(sources.len() * g.node_count(), EPS, DELTA);
    let config = PrsimConfig {
        walk_cache_budget: g.node_count(),
        reserve_precision: ReservePrecision::F32,
        hubs: HubCount::Fixed(g.node_count()),
        ..accuracy_config(dr, 1)
    };
    let engine = Prsim::build(g.clone(), config).unwrap();
    assert_eq!(engine.index().precision(), ReservePrecision::F32);
    assert!(engine.walk_cache().is_some());
    assert_within_eps(&engine, &g, &sources, 0xACB);
}

#[test]
fn fused_plan_beats_eps_under_the_same_hoeffding_bound() {
    // The fused query body (per-terminal VBBW folded straight into the
    // accumulator, branchless ŝ_I scatter) meets ε at the plain
    // Hoeffding-derived d_r: folding reorders float adds, it does not
    // resample, so it needs no extra budget.
    let g = prsim::gen::chung_lu_undirected(prsim::gen::ChungLuConfig::new(60, 5.0, 2.0, 101));
    let sources = [0u32, 17, 59];
    let dr = hoeffding_dr(sources.len() * g.node_count(), EPS, DELTA);
    let engine = Prsim::build(g.clone(), accuracy_config(dr, 1)).unwrap();
    assert_within_eps(&engine, &g, &sources, 0xACC);
}

#[test]
fn fused_plan_beats_eps_with_cache_and_median_rounds() {
    // The query body under the heaviest estimator configuration: median
    // trick over f_r = 3 rounds with a fully cached walk phase. Same
    // Hoeffding d_r, same ε.
    let g = prsim::gen::chung_lu_undirected(prsim::gen::ChungLuConfig::new(40, 4.0, 2.2, 104));
    let sources = [0u32, 20, 39];
    let dr = hoeffding_dr(sources.len() * g.node_count(), EPS, DELTA);
    let config = PrsimConfig {
        walk_cache_budget: g.node_count(),
        ..accuracy_config(dr, 3)
    };
    let engine = Prsim::build(g.clone(), config).unwrap();
    assert_within_eps(&engine, &g, &sources, 0xACE);
}

#[test]
fn index_free_engine_beats_eps() {
    // HubCount::Fixed(0): every terminal takes the backward-walk path.
    let g = prsim::gen::chung_lu_undirected(prsim::gen::ChungLuConfig::new(40, 4.0, 2.0, 105));
    let sources = [1u32, 30];
    let dr = hoeffding_dr(sources.len() * g.node_count(), EPS, DELTA);
    let config = PrsimConfig {
        hubs: HubCount::Fixed(0),
        ..accuracy_config(dr, 1)
    };
    let engine = Prsim::build(g.clone(), config).unwrap();
    assert_within_eps(&engine, &g, &sources, 0xACF);
}

#[test]
fn incremental_engine_stays_within_eps_after_updates() {
    // The dynamic engine's answers after a burst of edits must satisfy
    // the same ε bound against the exact SimRank of the *mutated* graph.
    let g0 = prsim::gen::chung_lu_undirected(prsim::gen::ChungLuConfig::new(45, 4.0, 2.0, 106));
    let sources = [0u32, 22, 44];
    let dr = hoeffding_dr(sources.len() * 45, EPS, DELTA);
    let mut dyn_engine = DynamicPrsim::new_incremental(&g0, accuracy_config(dr, 1)).unwrap();
    for i in 0..8u32 {
        dyn_engine
            .insert_edge(i * 5 % 45, (i * 7 + 2) % 45)
            .unwrap();
    }
    let (du, dv) = g0.edges().next().unwrap();
    dyn_engine.delete_edge(du, dv).unwrap();

    let current = dyn_engine.engine().unwrap().graph().clone();
    let exact = power_method(&current, C, 1e-12, 200);
    for &u in &sources {
        let (scores, _) = dyn_engine
            .single_source(u, &mut StdRng::seed_from_u64(0xAD0 ^ u as u64))
            .unwrap();
        for v in 0..current.node_count() as u32 {
            let err = (scores.get(v) - exact.get(u, v)).abs();
            assert!(err <= EPS, "after updates: |ŝ({u},{v}) − s| = {err} > ε");
        }
    }
}
