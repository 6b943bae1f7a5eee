//! # prsim-gen
//!
//! Synthetic graph generators for the PRSim suite.
//!
//! The paper's synthetic experiments (Figures 6 and 7) need two families:
//!
//! * **Power-law graphs with a prescribed cumulative out-degree exponent γ
//!   and average degree d̄** — the paper uses the hyperbolic graph
//!   generator; we substitute the Chung–Lu expected-degree model
//!   ([`chung_lu`]), which directly controls both dials (γ, d̄) that the
//!   paper's theory says matter, plus Barabási–Albert ([`ba`]) as a second
//!   power-law family (γ = 2).
//! * **Erdős–Rényi graphs** ([`erdos_renyi`]) with varying density for the
//!   non-power-law experiments.
//!
//! All generators take an explicit `u64` seed and are fully deterministic
//! for a given seed, so every figure in EXPERIMENTS.md is reproducible
//! bit-for-bit.
//!
//! [`toys`] provides the small fixed graphs used across the test suites,
//! including the paper's §3.4 two-level gadget on which the *simple*
//! backward walk has unbounded estimates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ba;
pub mod chung_lu;
pub mod erdos_renyi;
pub mod sbm;
pub mod toys;

pub use ba::{barabasi_albert, try_barabasi_albert};
pub use chung_lu::{
    chung_lu_directed, chung_lu_undirected, try_chung_lu_directed, try_chung_lu_undirected,
    ChungLuConfig,
};
pub use erdos_renyi::{
    erdos_renyi_directed, erdos_renyi_undirected, try_erdos_renyi_directed,
    try_erdos_renyi_undirected,
};
pub use sbm::{community_of, planted_partition, try_planted_partition};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Errors produced by the synthetic graph generators.
///
/// The generators are mostly infallible for sane parameters; this type
/// exists for the places where a size request can overflow host
/// arithmetic before any allocation happens (e.g. the `n·(n−1)` edge
/// count of a complete graph), and for parameters outside their domain
/// (the `try_*` constructors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// A requested size overflows `usize` arithmetic or exceeds the
    /// graph substrate's node-id range (`u32::MAX - 1`).
    SizeOverflow {
        /// Which generator rejected the request.
        generator: &'static str,
        /// The offending size parameter.
        n: usize,
    },
    /// A parameter is outside its domain (e.g. `n = 0` or a
    /// non-positive degree or exponent).
    InvalidParameter {
        /// Which generator rejected the request.
        generator: &'static str,
        /// The parameter's name.
        name: &'static str,
        /// The rejected value, as given.
        value: String,
        /// What the parameter must be.
        expected: &'static str,
    },
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::SizeOverflow { generator, n } => write!(
                f,
                "{generator}: size {n} overflows the generator's edge arithmetic \
                 or the u32 node-id range"
            ),
            GenError::InvalidParameter {
                generator,
                name,
                value,
                expected,
            } => write!(f, "{generator}: {name} must be {expected}, got {value}"),
        }
    }
}

impl std::error::Error for GenError {}

/// The [`GenError::InvalidParameter`] error for `generator`'s `name`.
pub(crate) fn invalid<T>(
    generator: &'static str,
    name: &'static str,
    value: impl ToString,
    expected: &'static str,
) -> Result<T, GenError> {
    Err(GenError::InvalidParameter {
        generator,
        name,
        value: value.to_string(),
        expected,
    })
}

/// Whether `p` is a probability (`NaN` is not).
pub(crate) fn is_probability(p: f64) -> bool {
    (0.0..=1.0).contains(&p)
}

/// Creates the deterministic RNG used by every generator in this crate.
pub(crate) fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
