//! # mp-stats — statistics substrate for `metaprobe`
//!
//! Self-contained statistical building blocks used throughout the
//! reproduction of *"A Probabilistic Approach to Metasearching with
//! Adaptive Probing"* (ICDE 2004):
//!
//! * [`Discrete`] — finite discrete probability distributions. Relevancy
//!   distributions (RDs) in the paper are exactly such distributions, and
//!   probing collapses them to impulses.
//! * [`Histogram`] — fixed-edge histograms with per-bin empirical means;
//!   error distributions (EDs) are histograms over estimation-error
//!   ratios.
//! * [`chi2`] — the Pearson χ² goodness-of-fit machinery the paper uses
//!   to validate sampling sizes (Section 4.2: 10 bins, 9 degrees of
//!   freedom).
//! * [`PoissonBinomial`] — exact distribution of the number of successes
//!   of independent, non-identical Bernoulli trials; the per-database
//!   oracle behind `mp-core`'s exact `P(db ∈ top-k)` sweeps.
//! * [`sampling`] — Zipf and alias-method categorical samplers for the
//!   synthetic corpus generator.
//! * [`online`] — Welford-style streaming summary statistics.
//! * [`special`] — log-gamma / incomplete-gamma special functions backing
//!   the χ² CDF, implemented from scratch.
//! * [`float`] — deliberate float comparison/conversion vocabulary
//!   (exact sentinel checks, approximate equality, checked rounding)
//!   that keeps the rest of the workspace compliant with mp-lint's L1
//!   and clippy's cast lints.
//!
//! Everything is deterministic given a seed; no global state.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod chi2;
pub mod discrete;
pub mod float;
pub mod histogram;
pub mod online;
pub mod poisson_binomial;
pub mod sampling;
pub mod special;

pub use chi2::{chi2_cdf, pearson_chi2_test, Chi2Outcome};
pub use discrete::Discrete;
pub use histogram::{BinSpec, Histogram};
pub use online::OnlineStats;
pub use poisson_binomial::PoissonBinomial;
pub use sampling::{AliasSampler, Zipf};
