//! Property-based tests of the PRSim core invariants.

use proptest::prelude::*;
use prsim_core::backward::{backward_search, BackwardWorkspace};
use prsim_core::pagerank::{exact_lhop_rppr_to, reverse_pagerank, second_moment};
use prsim_core::vbbw::variance_bounded_backward_walk;
use prsim_core::walk::{sample_walk, Terminal};
use prsim_core::{HubCount, Prsim, PrsimConfig, PrsimIndex, QueryParams};
use prsim_graph::delta::DeltaGraph;
use prsim_graph::ordering::sort_out_by_in_degree;
use prsim_graph::DiGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SQRT_C: f64 = 0.774_596_669_241_483_4;

/// Random directed graphs over 3..30 nodes with some edges.
fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (3usize..30).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..120).prop_map(move |edges| {
            let filtered: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            let mut all = filtered;
            all.sort_unstable();
            all.dedup();
            DiGraph::from_edges(n, &all)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pagerank_is_a_subdistribution(g in arb_graph()) {
        let pi = reverse_pagerank(&g, SQRT_C, 1e-12, 128);
        let total: f64 = pi.iter().sum();
        prop_assert!(total <= 1.0 + 1e-9, "Σπ = {total}");
        prop_assert!(pi.iter().all(|&x| x >= 0.0));
        let m2 = second_moment(&pi);
        prop_assert!(m2 <= total * total + 1e-9);
    }

    #[test]
    fn backward_reserves_never_exceed_truth(g in arb_graph(), w_raw in 0u32..30, r_exp in 2u32..6) {
        let w = w_raw % g.node_count() as u32;
        let r_max = 10f64.powi(-(r_exp as i32));
        let res = backward_search(&g, &mut BackwardWorkspace::new(), SQRT_C, w, r_max, 40, false);
        let exact = exact_lhop_rppr_to(&g, SQRT_C, w, res.levels.len().max(1));
        for (l, level) in res.levels.iter().enumerate() {
            for &(v, psi) in level {
                let truth = exact[l][v as usize];
                prop_assert!(psi <= truth + 1e-9, "ψ_{l}({v}) = {psi} > π = {truth}");
                prop_assert!(psi >= 0.0);
            }
        }
    }

    #[test]
    fn walks_are_paths_in_the_reverse_graph(g in arb_graph(), seed in 0u64..1000, src_raw in 0u32..30) {
        let src = src_raw % g.node_count() as u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let w = sample_walk(&g, SQRT_C, src, 64, &mut rng);
        prop_assert_eq!(w.path[0], src);
        for win in w.path.windows(2) {
            prop_assert!(
                g.in_neighbors(win[0]).contains(&win[1]),
                "step {} -> {} is not an in-edge",
                win[0],
                win[1]
            );
        }
        if let Terminal::At { node, level } = w.terminal {
            prop_assert_eq!(node, *w.path.last().unwrap());
            prop_assert_eq!(level as usize, w.path.len() - 1);
        }
    }

    #[test]
    fn vbbw_estimates_are_nonnegative_and_finite(g in arb_graph(), seed in 0u64..500, w_raw in 0u32..30, level in 0usize..6) {
        let mut g = g;
        sort_out_by_in_degree(&mut g);
        let w = w_raw % g.node_count() as u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let out = variance_bounded_backward_walk(&g, SQRT_C, w, level, &mut rng);
        for &(v, x) in &out.estimates {
            prop_assert!(x.is_finite() && x >= 0.0, "π̂({v}) = {x}");
        }
        // Level 0 is exactly {w: 1-√c}.
        if level == 0 {
            prop_assert_eq!(out.estimates.len(), 1);
            prop_assert!((out.estimates[0].1 - (1.0 - SQRT_C)).abs() < 1e-12);
        }
    }

    #[test]
    fn index_round_trip_is_identity(g in arb_graph(), j0 in 0usize..10) {
        let mut g = g;
        sort_out_by_in_degree(&mut g);
        let pi = reverse_pagerank(&g, SQRT_C, 1e-10, 64);
        let hubs: Vec<u32> = prsim_core::pagerank::rank_by_pagerank(&pi)
            .into_iter()
            .take(j0)
            .collect();
        let idx = PrsimIndex::build(&g, hubs, SQRT_C, 1e-3, 40, 1);
        let back = PrsimIndex::from_bytes(&idx.to_bytes(), g.node_count()).unwrap();
        prop_assert_eq!(idx, back);
    }

    #[test]
    fn query_scores_are_probabilities_ish(g in arb_graph(), seed in 0u64..200, hubs in 0usize..20) {
        let engine = Prsim::build(
            g,
            PrsimConfig {
                eps: 0.2,
                hubs: HubCount::Fixed(hubs),
                query: QueryParams::Explicit { dr: 400, fr: 1 },
                ..Default::default()
            },
        )
        .unwrap();
        let n = engine.graph().node_count() as u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let u = seed as u32 % n;
        let scores = engine.single_source(u, &mut rng);
        prop_assert_eq!(scores.get(u), 1.0);
        for (v, s) in scores.iter() {
            prop_assert!(s.is_finite() && s >= 0.0, "ŝ({u},{v}) = {s}");
            // Statistical overshoot is possible but bounded: estimates are
            // averages of [0, 1/(1-√c)²]-valued terms with 400 samples.
            prop_assert!(s <= 1.5, "ŝ({u},{v}) = {s} implausibly large");
        }
    }

    #[test]
    fn corrupt_index_bytes_never_panic(g in arb_graph(), cut in 0usize..4096, flip in 0usize..4096) {
        // Failure injection: arbitrary truncation and bit flips must yield
        // Err (or a still-valid index for benign flips), never a panic.
        let mut g = g;
        sort_out_by_in_degree(&mut g);
        let pi = reverse_pagerank(&g, SQRT_C, 1e-10, 64);
        let hubs: Vec<u32> = prsim_core::pagerank::rank_by_pagerank(&pi)
            .into_iter()
            .take(4)
            .collect();
        let idx = PrsimIndex::build(&g, hubs, SQRT_C, 1e-3, 40, 1);
        let bytes = idx.to_bytes().to_vec();
        // Truncation.
        let cut = cut % (bytes.len() + 1);
        let _ = PrsimIndex::from_bytes(&bytes[..cut], g.node_count());
        // Bit flip.
        let mut flipped = bytes.clone();
        let pos = flip % flipped.len();
        flipped[pos] ^= 0x40;
        let _ = PrsimIndex::from_bytes(&flipped, g.node_count());
    }

    #[test]
    fn query_deterministic_for_seed(g in arb_graph(), seed in 0u64..100) {
        let engine = Prsim::build(g, PrsimConfig {
            query: QueryParams::Explicit { dr: 200, fr: 2 },
            ..Default::default()
        }).unwrap();
        let n = engine.graph().node_count() as u32;
        let u = seed as u32 % n;
        let a = engine.single_source(u, &mut StdRng::seed_from_u64(seed));
        let b = engine.single_source(u, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(a.max_abs_diff(&b), 0.0);
    }
}

/// The dirty rule over exact `(node, max residue)` f64 records — what
/// the touched records held before they became 8-byte `f32` bounds —
/// kept as the reference the `f32` rule must cover.
fn f64_plan_update(
    records: &mut [Vec<(u32, f64)>],
    a: u32,
    b: u32,
    old_in_degree_b: usize,
    is_insert: bool,
    r_max: f64,
) -> Vec<usize> {
    let k = old_in_degree_b as f64;
    let mut dirty = Vec::new();
    for (rank, recs) in records.iter_mut().enumerate() {
        let bound = |v: u32| {
            recs.binary_search_by_key(&v, |&(x, _)| x)
                .map_or(0.0, |i| recs[i].1)
        };
        let rb = bound(b);
        let new_bound = if is_insert {
            (rb * k + SQRT_C * bound(a)) / (k + 1.0)
        } else if old_in_degree_b <= 1 {
            0.0
        } else {
            rb * k / (k - 1.0)
        };
        if rb > r_max || new_bound > r_max {
            dirty.push(rank);
        } else {
            match recs.binary_search_by_key(&b, |&(x, _)| x) {
                Ok(i) => recs[i].1 = new_bound,
                Err(i) if new_bound > 0.0 => recs.insert(i, (b, new_bound)),
                Err(_) => {}
            }
        }
    }
    dirty
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Over random graphs and update streams, the `f32` touched records
    /// stay sound — every stored bound is at least the maximum residue a
    /// fresh tracked search of that hub finds on the current graph — the
    /// `f32` rule's dirty set contains the exact `f64` rule's, and the
    /// repaired index equals a fresh build.
    #[test]
    fn f32_touch_bounds_stay_sound_and_cover_the_f64_rule(
        g in arb_graph(),
        j0 in 1usize..8,
        r_exp in 2i32..5,
        stream in proptest::collection::vec((0u32..30, 0u32..30, 0u8..2), 1..40),
    ) {
        let n = g.node_count() as u32;
        let r_max = 10f64.powi(-r_exp);
        let hubs: Vec<u32> = (0..n).take(j0).collect();
        let (mut index, mut touch) = PrsimIndex::build_tracked(&g, hubs.clone(), SQRT_C, r_max, 40, 1);
        let mut ws = BackwardWorkspace::new();
        let mut exact: Vec<Vec<(u32, f64)>> = hubs
            .iter()
            .map(|&w| backward_search(&g, &mut ws, SQRT_C, w, r_max, 40, true).touched)
            .collect();
        let mut prev = g.clone();
        let mut delta = DeltaGraph::new(g);
        for (a, b, op) in stream {
            let (a, b, insert) = (a % n, b % n, op == 1);
            let changed = if insert { delta.insert_edge(a, b) } else { delta.delete_edge(a, b) };
            if !changed {
                continue;
            }
            let k = prev.in_degree(b);
            let dirty = touch.plan_update(a, b, k, insert, SQRT_C, r_max);
            let dirty_f64 = f64_plan_update(&mut exact, a, b, k, insert, r_max);
            prop_assert!(
                dirty_f64.iter().all(|r| dirty.contains(r)),
                "f64 dirty {dirty_f64:?} not within f32 dirty {dirty:?}"
            );
            let snap = delta.snapshot();
            index.repair_hubs(&snap, &dirty, &mut touch, SQRT_C, r_max, 40, 1);
            for &rank in &dirty_f64 {
                exact[rank] = backward_search(&snap, &mut ws, SQRT_C, hubs[rank], r_max, 40, true).touched;
            }
            for (rank, &w) in hubs.iter().enumerate() {
                let fresh = backward_search(&snap, &mut ws, SQRT_C, w, r_max, 40, true);
                for &(v, r) in &fresh.touched {
                    let stored = touch.max_residue(rank, v);
                    prop_assert!(stored >= r, "hub {w}, node {v}: bound {stored} < residue {r}");
                }
            }
            prop_assert_eq!(&index, &PrsimIndex::build(&snap, hubs.clone(), SQRT_C, r_max, 40, 1));
            prev = snap;
        }
    }
}
