//! Configuration of the PRSim engine.

use crate::index::ReservePrecision;
use crate::PrsimError;

/// How many hub nodes `j₀` to index (paper §3.3).
///
/// Hubs are the nodes with the largest reverse PageRank; the index stores
/// the full level-wise backward-search result for each hub, so `j₀` trades
/// index size and preprocessing time against query time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HubCount {
    /// `j₀ = ⌈√n⌉` — the setting used throughout the paper's experiments.
    SqrtN,
    /// An explicit hub count (clamped to `n`). `Fixed(0)` makes PRSim
    /// index-free.
    Fixed(usize),
    /// `j₀ = n·(ε·d̄)^{γ/(γ−1)}` for the given γ — the theoretical setting
    /// of Theorem 3.12 that bounds the index by `O(m)`.
    TheoremBound {
        /// Cumulative out-degree power-law exponent γ of the graph.
        gamma: f64,
    },
}

impl HubCount {
    /// Resolves the policy to a concrete `j₀ ≤ n`.
    pub fn resolve(&self, n: usize, avg_degree: f64, eps: f64) -> usize {
        match *self {
            HubCount::SqrtN => (n as f64).sqrt().ceil() as usize,
            HubCount::Fixed(j0) => j0.min(n),
            HubCount::TheoremBound { gamma } => {
                if gamma <= 1.0 {
                    return 0;
                }
                let x = (eps * avg_degree).min(1.0);
                let j0 = n as f64 * x.powf(gamma / (gamma - 1.0));
                (j0.ceil() as usize).min(n)
            }
        }
    }
}

/// Full PRSim configuration: decay factor, accuracy target and index policy.
#[derive(Clone, Debug)]
pub struct PrsimConfig {
    /// SimRank decay factor `c ∈ (0,1)`; the paper (and most of the
    /// literature) uses 0.6.
    pub c: f64,
    /// Additive error target ε.
    pub eps: f64,
    /// Failure probability δ.
    pub delta: f64,
    /// Hub-count policy for the index.
    pub hubs: HubCount,
    /// Hard cap on walk length / backward-search depth. Survival beyond
    /// level L has probability `c^{L/2}`; the default 64 truncates below
    /// 1e-7 of the mass for c = 0.6.
    pub max_level: usize,
    /// Query-phase sampling parameters.
    pub query: QueryParams,
    /// Number of threads used to build the index (hubs are independent).
    pub build_threads: usize,
    /// Storage width of index reserves. [`ReservePrecision::F32`] shrinks
    /// the postings arena by a third (8 instead of 12 bytes per entry);
    /// the per-entry quantization error (relative ≤ 2⁻²⁴) is charged
    /// against the `eps` budget, so [`PrsimConfig::validate`] rejects the
    /// combination with an `eps` small enough for that charge to matter.
    pub reserve_precision: ReservePrecision,
    /// Number of top-reverse-PageRank nodes whose √c-walk terminal
    /// distributions (and η-pair verdicts) are **pre-sampled** into the
    /// walk-engine cache ([`crate::walkcache::WalkCache`]); `0` disables
    /// the cache entirely. Queries consume the pre-drawn samples through
    /// without-replacement cursors with a per-query random rotation, so
    /// every single answer remains an honest Monte-Carlo estimate —
    /// what the cache trades away is *independence between answers*
    /// (repeated queries share pool samples; see the `walkcache` module
    /// docs for the correlation caveat). CLI: `--walk-cache N` /
    /// `--no-walk-cache`. Validated against
    /// [`PrsimConfig::MAX_WALK_CACHE_BUDGET`].
    pub walk_cache_budget: usize,
}

impl Default for PrsimConfig {
    fn default() -> Self {
        PrsimConfig {
            c: 0.6,
            eps: 0.05,
            delta: 1e-4,
            hubs: HubCount::SqrtN,
            max_level: 64,
            query: QueryParams::Practical { c_mult: 3.0 },
            build_threads: 4,
            reserve_precision: ReservePrecision::F64,
            walk_cache_budget: 256,
        }
    }
}

/// Sample-count policy for the query phase (Algorithm 4).
///
/// The paper sets `d_r = c₁/ε²` with `c₁ = 12/(1−√c)²` and
/// `f_r = 3·log(n/δ)` rounds for the median trick. Those constants are
/// chosen to make the Chernoff/Chebyshev proofs go through verbatim and
/// are far larger than needed in practice; the authors' released code also
/// scales them down. `Practical` reproduces that: `d_r = c_mult/ε²`,
/// `f_r = 1` (recorded per experiment in EXPERIMENTS.md).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryParams {
    /// Paper constants: `d_r = 12/((1−√c)²ε²)`, `f_r = 3·log(n/δ)`.
    Paper,
    /// Practical constants: `d_r = c_mult/ε²`, `f_r = 1`.
    Practical {
        /// Multiplier in `d_r = c_mult / ε²`.
        c_mult: f64,
    },
    /// Fully explicit sample counts.
    Explicit {
        /// Samples per round.
        dr: usize,
        /// Median-trick rounds.
        fr: usize,
    },
}

impl QueryParams {
    /// Resolves the policy into `(d_r, f_r)` for the given graph size and
    /// accuracy targets.
    pub fn resolve(&self, n: usize, c: f64, eps: f64, delta: f64) -> (usize, usize) {
        match *self {
            QueryParams::Paper => {
                let c1 = 12.0 / (1.0 - c.sqrt()).powi(2);
                let dr = (c1 / (eps * eps)).ceil() as usize;
                let fr = (3.0 * ((n.max(2) as f64) / delta).ln()).ceil() as usize;
                (dr.max(1), fr.max(1))
            }
            QueryParams::Practical { c_mult } => {
                let dr = (c_mult / (eps * eps)).ceil() as usize;
                (dr.max(1), 1)
            }
            QueryParams::Explicit { dr, fr } => (dr.max(1), fr.max(1)),
        }
    }
}

/// Tuning knobs of the incremental dynamic engine
/// ([`crate::DynamicPrsim`] in `Incremental` mode).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DynamicParams {
    /// Overlay size (pending inserts + deletes) at which the
    /// [`prsim_graph::DeltaGraph`] folds the overlay into its CSR base.
    pub compact_threshold: usize,
    /// Accumulated L1 reverse-PageRank drift that triggers a full rebuild
    /// (hub re-selection). Drift affects only *query efficiency* — hub
    /// reserve lists are kept exact by repair regardless — so this trades
    /// hub-set optimality against rebuild frequency.
    pub drift_budget: f64,
    /// Residual tolerance of the warm-start PageRank refinement.
    pub pr_tol: f64,
    /// Iteration cap of one refinement (safety net; with warm starts the
    /// contraction reaches `pr_tol` in far fewer).
    pub pr_max_iter: usize,
}

impl Default for DynamicParams {
    fn default() -> Self {
        DynamicParams {
            compact_threshold: 1024,
            drift_budget: 0.05,
            // π only ranks hub candidates; 1e-8 L1 residual is orders of
            // magnitude below any ranking-relevant gap while halving the
            // per-update refinement iterations vs a 1e-9 target.
            pr_tol: 1e-8,
            pr_max_iter: 128,
        }
    }
}

impl DynamicParams {
    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), PrsimError> {
        if self.compact_threshold == 0 {
            return Err(PrsimError::InvalidConfig(
                "compact_threshold must be at least 1".into(),
            ));
        }
        if !(self.drift_budget > 0.0 && self.drift_budget.is_finite()) {
            return Err(PrsimError::InvalidConfig(format!(
                "drift_budget must be positive and finite, got {}",
                self.drift_budget
            )));
        }
        if !(self.pr_tol > 0.0 && self.pr_tol.is_finite()) {
            return Err(PrsimError::InvalidConfig(format!(
                "pr_tol must be positive and finite, got {}",
                self.pr_tol
            )));
        }
        if self.pr_max_iter == 0 {
            return Err(PrsimError::InvalidConfig(
                "pr_max_iter must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Rejects [`ReservePrecision::F32`] when the quantization error cannot
/// hide inside the `eps` budget. Each stored reserve carries relative
/// rounding error ≤ 2⁻²⁴, and the index part of a score sums to at most
/// `1/α²` of raw reserve mass (`α = 1−√c`), so the worst-case score
/// perturbation is `2⁻²⁴/α²` — a bound that *grows with `c`*. Requiring
/// a 16x margin below `eps` keeps the charge negligible at any decay.
/// Shared by [`PrsimConfig::validate`] and the index-loading path
/// (`Prsim::from_parts`), so a deserialized f32 index cannot bypass it.
pub(crate) fn validate_reserve_precision(
    precision: ReservePrecision,
    eps: f64,
    c: f64,
) -> Result<(), PrsimError> {
    if precision == ReservePrecision::F64 {
        return Ok(());
    }
    let alpha = 1.0 - c.sqrt();
    let quantization = (0.5f64).powi(24) / (alpha * alpha);
    if eps < 16.0 * quantization {
        return Err(PrsimError::InvalidConfig(format!(
            "f32 reserves need eps >= {:.2e} at c = {c} (score perturbation bound \
             2^-24/(1-sqrt(c))^2 = {:.2e} must stay 16x below eps), got eps = {eps}",
            16.0 * quantization,
            quantization
        )));
    }
    Ok(())
}

impl PrsimConfig {
    /// Ceiling on [`PrsimConfig::walk_cache_budget`]: beyond ~4M cached
    /// nodes the pool arena and invalidation masks dwarf the index
    /// itself, so larger values are almost certainly a units mistake.
    pub const MAX_WALK_CACHE_BUDGET: usize = 1 << 22;

    /// √c, the per-step survival probability of the reverse walks.
    #[inline]
    pub fn sqrt_c(&self) -> f64 {
        self.c.sqrt()
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), PrsimError> {
        if !(self.c > 0.0 && self.c < 1.0) {
            return Err(PrsimError::InvalidConfig(format!(
                "decay factor c must lie in (0,1), got {}",
                self.c
            )));
        }
        if !(self.eps > 0.0 && self.eps <= 1.0) {
            return Err(PrsimError::InvalidConfig(format!(
                "error target eps must lie in (0,1], got {}",
                self.eps
            )));
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(PrsimError::InvalidConfig(format!(
                "failure probability delta must lie in (0,1), got {}",
                self.delta
            )));
        }
        if self.max_level == 0 {
            return Err(PrsimError::InvalidConfig(
                "max_level must be at least 1".into(),
            ));
        }
        if self.build_threads == 0 {
            return Err(PrsimError::InvalidConfig(
                "build_threads must be at least 1".into(),
            ));
        }
        if self.walk_cache_budget > Self::MAX_WALK_CACHE_BUDGET {
            return Err(PrsimError::InvalidConfig(format!(
                "walk_cache_budget {} exceeds the ceiling {} (use 0 to disable the cache)",
                self.walk_cache_budget,
                Self::MAX_WALK_CACHE_BUDGET
            )));
        }
        validate_reserve_precision(self.reserve_precision, self.eps, self.c)?;
        Ok(())
    }

    /// The residue threshold `r_max = (1−√c)²·ε / 12` of Algorithm 1.
    #[inline]
    pub fn r_max(&self) -> f64 {
        (1.0 - self.sqrt_c()).powi(2) * self.eps / 12.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        PrsimConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_bad_ranges() {
        for (field, cfg) in [
            (
                "c=0",
                PrsimConfig {
                    c: 0.0,
                    ..Default::default()
                },
            ),
            (
                "c=1",
                PrsimConfig {
                    c: 1.0,
                    ..Default::default()
                },
            ),
            (
                "eps=0",
                PrsimConfig {
                    eps: 0.0,
                    ..Default::default()
                },
            ),
            (
                "delta=0",
                PrsimConfig {
                    delta: 0.0,
                    ..Default::default()
                },
            ),
            (
                "max_level=0",
                PrsimConfig {
                    max_level: 0,
                    ..Default::default()
                },
            ),
            (
                "threads=0",
                PrsimConfig {
                    build_threads: 0,
                    ..Default::default()
                },
            ),
            (
                "walk_cache_budget over ceiling",
                PrsimConfig {
                    walk_cache_budget: PrsimConfig::MAX_WALK_CACHE_BUDGET + 1,
                    ..Default::default()
                },
            ),
        ] {
            assert!(cfg.validate().is_err(), "{field} accepted");
        }
    }

    #[test]
    fn walk_cache_budget_bounds() {
        // 0 (disabled) and the ceiling itself are both valid.
        PrsimConfig {
            walk_cache_budget: 0,
            ..Default::default()
        }
        .validate()
        .unwrap();
        PrsimConfig {
            walk_cache_budget: PrsimConfig::MAX_WALK_CACHE_BUDGET,
            ..Default::default()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn dynamic_params_validate() {
        DynamicParams::default().validate().unwrap();
        for (field, p) in [
            (
                "threshold=0",
                DynamicParams {
                    compact_threshold: 0,
                    ..Default::default()
                },
            ),
            (
                "budget=0",
                DynamicParams {
                    drift_budget: 0.0,
                    ..Default::default()
                },
            ),
            (
                "tol=0",
                DynamicParams {
                    pr_tol: 0.0,
                    ..Default::default()
                },
            ),
            (
                "iters=0",
                DynamicParams {
                    pr_max_iter: 0,
                    ..Default::default()
                },
            ),
        ] {
            assert!(p.validate().is_err(), "{field} accepted");
        }
    }

    #[test]
    fn f32_reserves_require_room_in_eps() {
        let ok = PrsimConfig {
            reserve_precision: ReservePrecision::F32,
            ..Default::default()
        };
        ok.validate().unwrap();
        let bad = PrsimConfig {
            reserve_precision: ReservePrecision::F32,
            eps: 1e-6,
            ..Default::default()
        };
        assert!(bad.validate().is_err(), "eps below the quantization floor");
        // The same eps is fine at full precision.
        let wide = PrsimConfig {
            eps: 1e-6,
            ..Default::default()
        };
        wide.validate().unwrap();
        // The floor is c-dependent: the 2^-24/(1-sqrt(c))^2 perturbation
        // bound blows up as c -> 1, so an eps that passes at c = 0.6 must
        // be rejected at c = 0.99.
        let large_c = PrsimConfig {
            reserve_precision: ReservePrecision::F32,
            c: 0.99,
            eps: 1e-3,
            ..Default::default()
        };
        assert!(large_c.validate().is_err(), "c = 0.99 amplifies the bound");
        let large_c_wide_eps = PrsimConfig {
            reserve_precision: ReservePrecision::F32,
            c: 0.99,
            eps: 0.5,
            ..Default::default()
        };
        large_c_wide_eps.validate().unwrap();
    }

    #[test]
    fn hub_count_policies() {
        assert_eq!(HubCount::SqrtN.resolve(100, 10.0, 0.1), 10);
        assert_eq!(HubCount::Fixed(5).resolve(100, 10.0, 0.1), 5);
        assert_eq!(HubCount::Fixed(500).resolve(100, 10.0, 0.1), 100);
        // Theorem bound: j0 = n (eps·d̄)^{γ/(γ−1)}; γ=2, eps·d̄=0.5 -> n/4.
        let j0 = HubCount::TheoremBound { gamma: 2.0 }.resolve(1000, 5.0, 0.1);
        assert_eq!(j0, 250);
        // γ <= 1 means index-free.
        assert_eq!(
            HubCount::TheoremBound { gamma: 1.0 }.resolve(1000, 5.0, 0.1),
            0
        );
    }

    #[test]
    fn query_params_resolve() {
        let (dr, fr) = QueryParams::Paper.resolve(1000, 0.6, 0.1, 1e-4);
        let c1 = 12.0 / (1.0f64 - 0.6f64.sqrt()).powi(2);
        assert_eq!(dr, (c1 / 0.01).ceil() as usize);
        assert!(fr >= 3);

        let (dr, fr) = QueryParams::Practical { c_mult: 3.0 }.resolve(1000, 0.6, 0.1, 1e-4);
        assert_eq!(dr, 300);
        assert_eq!(fr, 1);

        let (dr, fr) = QueryParams::Explicit { dr: 7, fr: 0 }.resolve(1000, 0.6, 0.1, 1e-4);
        assert_eq!((dr, fr), (7, 1));
    }

    #[test]
    fn r_max_matches_formula() {
        let cfg = PrsimConfig {
            c: 0.6,
            eps: 0.12,
            ..Default::default()
        };
        let want = (1.0 - 0.6f64.sqrt()).powi(2) * 0.12 / 12.0;
        assert!((cfg.r_max() - want).abs() < 1e-15);
    }
}
