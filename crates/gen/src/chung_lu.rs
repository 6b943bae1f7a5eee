//! Chung–Lu expected-degree power-law generator.
//!
//! The Chung–Lu model assigns each node `i` a weight `w_i` and inserts
//! edge `(i, j)` independently with probability `min(1, w_i·w_j / W)`
//! where `W = Σ w`. Choosing rank-based weights
//! `w_i ∝ (i+1)^{-1/γ}` yields a degree distribution whose complementary
//! cumulative distribution follows `P(deg ≥ k) ~ k^{-γ}` — precisely the
//! cumulative power-law exponent the PRSim analysis (Theorem 3.12)
//! is parameterized by, and the same convention used by Eq. (12) of the
//! paper for reverse-PageRank values.
//!
//! Sampling uses the Miller–Hagberg skipping technique: with weights
//! sorted in descending order, for a fixed `i` the probabilities
//! `p_{ij}` are non-increasing in `j`, so runs of non-edges can be
//! skipped geometrically and accepted with ratio `p_actual / p_bound`.
//! Expected running time is `O(n + m)`.

use prsim_graph::{DiGraph, GraphBuilder, NodeId};
use rand::Rng;

use crate::{invalid, rng_from_seed, GenError};

const GENERATOR: &str = "chung-lu";

/// Parameters of the Chung–Lu generators.
#[derive(Clone, Copy, Debug)]
pub struct ChungLuConfig {
    /// Number of nodes.
    pub n: usize,
    /// Target average degree d̄ (out-degree for the directed variant).
    pub avg_degree: f64,
    /// Cumulative power-law exponent γ of the (out-)degree distribution.
    pub gamma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ChungLuConfig {
    /// Convenience constructor.
    pub fn new(n: usize, avg_degree: f64, gamma: f64, seed: u64) -> Self {
        ChungLuConfig {
            n,
            avg_degree,
            gamma,
            seed,
        }
    }

    /// Checks every parameter's domain: `0 < n < u32::MAX`, a finite
    /// positive `avg_degree` and a positive `gamma`.
    pub fn validate(&self) -> Result<(), GenError> {
        if self.n >= u32::MAX as usize {
            return Err(GenError::SizeOverflow {
                generator: GENERATOR,
                n: self.n,
            });
        }
        if self.n == 0 {
            return invalid(GENERATOR, "n", self.n, "positive");
        }
        if !self.avg_degree.is_finite() || self.avg_degree <= 0.0 {
            return invalid(
                GENERATOR,
                "avg_degree",
                self.avg_degree,
                "finite and positive",
            );
        }
        if self.gamma.is_nan() || self.gamma <= 0.0 {
            return invalid(GENERATOR, "gamma", self.gamma, "positive");
        }
        Ok(())
    }
}

/// Rank-based power-law weights `w_i = κ·(i+1)^{-1/γ}`, normalized so the
/// weight mean equals `avg_degree` and capped at `sqrt(W)` so that all edge
/// probabilities stay `< 1` (the standard Chung–Lu feasibility condition).
fn powerlaw_weights(n: usize, avg_degree: f64, gamma: f64) -> Vec<f64> {
    let beta = 1.0 / gamma;
    let raw: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-beta)).collect();
    let raw_sum: f64 = raw.iter().sum();
    let target_sum = avg_degree * n as f64;
    let kappa = target_sum / raw_sum;
    let mut w: Vec<f64> = raw.into_iter().map(|r| kappa * r).collect();
    // Cap the head so that w_i * w_j / W <= 1 for all pairs; this truncates
    // the extreme hubs exactly like real datasets truncate at n.
    let total: f64 = w.iter().sum();
    let cap = total.sqrt();
    for wi in &mut w {
        if *wi > cap {
            *wi = cap;
        }
    }
    w
}

/// Generates an **undirected** Chung–Lu power-law graph (each edge stored
/// in both directions), the stand-in for the paper's hyperbolic generator
/// in Figure 6.
///
/// ```
/// use prsim_gen::{chung_lu_undirected, ChungLuConfig};
///
/// let g = chung_lu_undirected(ChungLuConfig::new(500, 8.0, 2.5, 42));
/// assert_eq!(g.node_count(), 500);
/// assert!(g.avg_degree() > 2.0);
/// ```
///
/// # Panics
///
/// On parameters [`ChungLuConfig::validate`] rejects; see
/// [`try_chung_lu_undirected`] for the fallible form.
pub fn chung_lu_undirected(cfg: ChungLuConfig) -> DiGraph {
    try_chung_lu_undirected(cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`chung_lu_undirected`]: rejects out-of-domain parameters
/// with a [`GenError`] instead of panicking.
pub fn try_chung_lu_undirected(cfg: ChungLuConfig) -> Result<DiGraph, GenError> {
    cfg.validate()?;
    let mut rng = rng_from_seed(cfg.seed);
    // The undirected model spreads each edge over two endpoints: to hit an
    // average (total) degree of d̄, weights should sum so that the expected
    // number of undirected edges is n·d̄/2; using weights with mean d̄ gives
    // expected Σ_{i<j} w_i w_j / W ≈ W/2 = n·d̄/2 edges, i.e. average total
    // degree d̄ once both directions are stored.
    let w = powerlaw_weights(cfg.n, cfg.avg_degree, cfg.gamma);
    let total: f64 = w.iter().sum();

    // Weights are already descending (rank-based), so node ids double as
    // weight ranks and the output needs no relabeling.
    let mut b = GraphBuilder::new();
    b.ensure_nodes(cfg.n);
    for i in 0..cfg.n {
        let mut j = i + 1;
        if j >= cfg.n {
            break;
        }
        // Upper bound for the row: probabilities are non-increasing in j.
        let mut p_bound = (w[i] * w[j] / total).min(1.0);
        while j < cfg.n && p_bound > 0.0 {
            // Geometric skip: distance to next candidate under p_bound.
            let r: f64 = rng.gen_range(f64::EPSILON..1.0);
            let skip = if p_bound >= 1.0 {
                0
            } else {
                (r.ln() / (1.0 - p_bound).ln()).floor() as usize
            };
            j += skip;
            if j >= cfg.n {
                break;
            }
            let p_actual = (w[i] * w[j] / total).min(1.0);
            if rng.gen::<f64>() < p_actual / p_bound {
                b.add_undirected_edge(i as NodeId, j as NodeId);
            }
            p_bound = p_actual;
            j += 1;
        }
    }
    Ok(b.build())
}

/// Generates a **directed** Chung–Lu graph with independent out- and
/// in-weight sequences.
///
/// Out-weights follow a power law with exponent `gamma` (this is the γ of
/// the paper's Theorem 3.12); in-weights follow `gamma_in`. To decorrelate
/// out- and in-degree (real webs/social graphs have distinct hub sets), the
/// in-weight ranks are assigned via a deterministic permutation derived
/// from the seed.
///
/// # Panics
///
/// On parameters [`ChungLuConfig::validate`] rejects, or a
/// non-positive `gamma_in`; see [`try_chung_lu_directed`] for the
/// fallible form.
pub fn chung_lu_directed(cfg: ChungLuConfig, gamma_in: f64, seed_perm: u64) -> DiGraph {
    try_chung_lu_directed(cfg, gamma_in, seed_perm).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`chung_lu_directed`]: rejects out-of-domain parameters
/// with a [`GenError`] instead of panicking.
pub fn try_chung_lu_directed(
    cfg: ChungLuConfig,
    gamma_in: f64,
    seed_perm: u64,
) -> Result<DiGraph, GenError> {
    cfg.validate()?;
    if gamma_in.is_nan() || gamma_in <= 0.0 {
        return invalid(GENERATOR, "gamma_in", gamma_in, "positive");
    }
    let mut rng = rng_from_seed(cfg.seed);

    let a = powerlaw_weights(cfg.n, cfg.avg_degree, cfg.gamma); // out-weights by rank
    let mut bw = powerlaw_weights(cfg.n, cfg.avg_degree, gamma_in); // in-weights by rank
    let total: f64 = a.iter().sum();
    // Rescale in-weights to the same total mass (required: Σa = Σb = S).
    let bsum: f64 = bw.iter().sum();
    for x in &mut bw {
        *x *= total / bsum;
    }

    // Permute which node holds which in-weight rank.
    let mut perm: Vec<u32> = (0..cfg.n as u32).collect();
    {
        let mut prng = rng_from_seed(seed_perm);
        // Fisher–Yates.
        for i in (1..cfg.n).rev() {
            let j = prng.gen_range(0..=i);
            perm.swap(i, j);
        }
    }

    let mut builder = GraphBuilder::new();
    builder.ensure_nodes(cfg.n);
    // For each source i (out-weight a[i]), skip-sample targets over the
    // descending in-weight ranks; perm maps rank -> node id.
    for (i, &ai) in a.iter().enumerate() {
        if ai <= 0.0 {
            continue;
        }
        let mut rank = 0usize;
        let mut p_bound = (ai * bw[0] / total).min(1.0);
        while rank < cfg.n && p_bound > 0.0 {
            let r: f64 = rng.gen_range(f64::EPSILON..1.0);
            let skip = if p_bound >= 1.0 {
                0
            } else {
                (r.ln() / (1.0 - p_bound).ln()).floor() as usize
            };
            rank += skip;
            if rank >= cfg.n {
                break;
            }
            let p_actual = (ai * bw[rank] / total).min(1.0);
            if rng.gen::<f64>() < p_actual / p_bound {
                let tgt = perm[rank];
                if tgt != i as u32 {
                    builder.add_edge(i as NodeId, tgt);
                }
            }
            p_bound = p_actual;
            rank += 1;
        }
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prsim_graph::degrees::{degree_sequence, powerlaw_exponent_ccdf_fit, DegreeKind};

    #[test]
    fn weights_mean_equals_target_before_cap() {
        let w = powerlaw_weights(10_000, 10.0, 2.5);
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        // The cap can only lower the mean slightly.
        assert!(mean <= 10.0 + 1e-9);
        assert!(mean > 8.0, "mean {mean} too far below target");
        // Descending.
        assert!(w.windows(2).all(|p| p[0] >= p[1]));
    }

    #[test]
    fn undirected_deterministic_per_seed() {
        let cfg = ChungLuConfig::new(300, 6.0, 2.0, 7);
        let g1 = chung_lu_undirected(cfg);
        let g2 = chung_lu_undirected(cfg);
        assert_eq!(g1, g2);
        let g3 = chung_lu_undirected(ChungLuConfig::new(300, 6.0, 2.0, 8));
        assert_ne!(g1, g3);
    }

    #[test]
    fn undirected_is_symmetric() {
        let g = chung_lu_undirected(ChungLuConfig::new(200, 5.0, 2.0, 1));
        for u in g.nodes() {
            for &v in g.out_neighbors(u) {
                assert!(
                    g.out_neighbors(v).contains(&u),
                    "missing reverse edge {v}->{u}"
                );
            }
        }
    }

    #[test]
    fn undirected_hits_average_degree() {
        let g = chung_lu_undirected(ChungLuConfig::new(5_000, 10.0, 2.5, 3));
        let d = g.avg_degree();
        assert!(
            (d - 10.0).abs() < 2.0,
            "average degree {d} too far from target 10"
        );
    }

    #[test]
    fn undirected_recovers_exponent() {
        let g = chung_lu_undirected(ChungLuConfig::new(20_000, 10.0, 2.0, 11));
        let degs = degree_sequence(&g, DegreeKind::Out);
        let est = powerlaw_exponent_ccdf_fit(&degs, 5).unwrap();
        assert!(
            (est - 2.0).abs() < 0.5,
            "estimated exponent {est}, wanted ~2.0"
        );
    }

    #[test]
    fn directed_hits_average_degree_and_exponent() {
        let cfg = ChungLuConfig::new(20_000, 8.0, 1.8, 5);
        let g = chung_lu_directed(cfg, 2.5, 99);
        let d = g.avg_degree();
        assert!((d - 8.0).abs() < 2.0, "avg degree {d} vs target 8");
        let out = degree_sequence(&g, DegreeKind::Out);
        let est = powerlaw_exponent_ccdf_fit(&out, 5).unwrap();
        assert!(
            (est - 1.8).abs() < 0.5,
            "estimated out exponent {est}, wanted ~1.8"
        );
    }

    #[test]
    fn directed_no_self_loops() {
        let g = chung_lu_directed(ChungLuConfig::new(500, 6.0, 2.0, 2), 2.0, 3);
        for u in g.nodes() {
            assert!(!g.out_neighbors(u).contains(&u));
        }
    }

    #[test]
    fn out_of_domain_parameters_are_structured_errors() {
        let ok = ChungLuConfig::new(10, 4.0, 2.0, 1);
        assert!(ok.validate().is_ok());
        let bad = [
            (ChungLuConfig { n: 0, ..ok }, "n"),
            (
                ChungLuConfig {
                    avg_degree: 0.0,
                    ..ok
                },
                "avg_degree",
            ),
            (
                ChungLuConfig {
                    avg_degree: f64::INFINITY,
                    ..ok
                },
                "avg_degree",
            ),
            (ChungLuConfig { gamma: 0.0, ..ok }, "gamma"),
            (
                ChungLuConfig {
                    gamma: f64::NAN,
                    ..ok
                },
                "gamma",
            ),
        ];
        for (cfg, param) in bad {
            match try_chung_lu_undirected(cfg) {
                Err(GenError::InvalidParameter { name, .. }) => assert_eq!(name, param),
                other => panic!("{cfg:?}: expected an InvalidParameter error, got {other:?}"),
            }
            assert!(try_chung_lu_directed(cfg, 2.0, 1).is_err());
        }
        let huge = ChungLuConfig {
            n: usize::MAX,
            ..ok
        };
        assert!(matches!(
            huge.validate(),
            Err(GenError::SizeOverflow { .. })
        ));
        let err = try_chung_lu_directed(ok, 0.0, 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            "chung-lu: gamma_in must be positive, got 0"
        );
    }

    #[test]
    fn small_extreme_gammas_do_not_panic() {
        for gamma in [1.1, 4.0, 9.0] {
            let g = chung_lu_undirected(ChungLuConfig::new(100, 4.0, gamma, 1));
            assert_eq!(g.node_count(), 100);
        }
    }
}
