//! Ablation bench: Variance Bounded Backward Walk (Algorithm 3) vs the
//! simple backward walk (Algorithm 2) vs a ProbeSim-style full-scan probe,
//! plus the deterministic backward search used at index-build time.
//!
//! The paper's claim (§3.4, Figure 7a): VBBW visits only the
//! in-degree-bounded prefix of each out-list, so its cost tracks n·π(w)
//! rather than the out-degree volume a full-scan probe pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prsim_core::backward::{backward_search, BackwardWorkspace};
use prsim_core::pagerank::{rank_by_pagerank, reverse_pagerank};
use prsim_core::vbbw::{simple_backward_walk, variance_bounded_backward_walk};
use prsim_gen::{chung_lu_undirected, ChungLuConfig};
use prsim_graph::ordering::sort_out_by_in_degree;
use prsim_graph::{DiGraph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

const SQRT_C: f64 = 0.774_596_669_241_483_4;

fn graph() -> (DiGraph, Vec<NodeId>) {
    let mut g = chung_lu_undirected(ChungLuConfig::new(30_000, 12.0, 1.8, 7));
    sort_out_by_in_degree(&mut g);
    let pi = reverse_pagerank(&g, SQRT_C, 1e-9, 64);
    let order = rank_by_pagerank(&pi);
    // Median-π targets: representative non-hub nodes.
    let targets: Vec<NodeId> = order[order.len() / 2..].iter().copied().take(64).collect();
    (g, targets)
}

/// ProbeSim-style probe: full out-neighbor scans, no prefix cut.
fn full_scan_probe(g: &DiGraph, w: NodeId, level: usize) -> usize {
    let mut cur: HashMap<NodeId, f64> = HashMap::new();
    cur.insert(w, 1.0);
    let mut cost = 0usize;
    for _ in 0..level {
        let mut next: HashMap<NodeId, f64> = HashMap::new();
        for (&x, &s) in &cur {
            for &y in g.out_neighbors(x) {
                cost += 1;
                *next.entry(y).or_insert(0.0) += SQRT_C * s / g.in_degree(y) as f64;
            }
        }
        cur = next;
    }
    cost
}

fn bench_estimators(c: &mut Criterion) {
    let (g, targets) = graph();
    let mut group = c.benchmark_group("lhop_rppr_estimators");
    group.bench_function("vbbw", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        let mut i = 0usize;
        b.iter(|| {
            let w = targets[i % targets.len()];
            i += 1;
            variance_bounded_backward_walk(&g, SQRT_C, w, 4, &mut rng)
        });
    });
    group.bench_function("simple", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let mut i = 0usize;
        b.iter(|| {
            let w = targets[i % targets.len()];
            i += 1;
            simple_backward_walk(&g, SQRT_C, w, 4, &mut rng)
        });
    });
    group.bench_function("full_scan_probe", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let w = targets[i % targets.len()];
            i += 1;
            full_scan_probe(&g, w, 4)
        });
    });
    group.finish();
}

fn bench_backward_search(c: &mut Criterion) {
    let (g, targets) = graph();
    let mut group = c.benchmark_group("backward_search");
    for r_max in [1e-2f64, 1e-3, 1e-4] {
        group.bench_with_input(BenchmarkId::from_parameter(r_max), &r_max, |b, &r_max| {
            let mut ws = BackwardWorkspace::new();
            let mut i = 0usize;
            b.iter(|| {
                let w = targets[i % targets.len()];
                i += 1;
                backward_search(&g, &mut ws, SQRT_C, w, r_max, 64, false)
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_estimators, bench_backward_search
}
criterion_main!(benches);
