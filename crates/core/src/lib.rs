//! # mp-core — probabilistic metasearching with adaptive probing
//!
//! The reproduction of the paper's primary contribution
//! (*A Probabilistic Approach to Metasearching with Adaptive Probing*,
//! Liu, Luo, Cho, Chu — ICDE 2004):
//!
//! 1. **Relevancy estimation** ([`estimator`]) — the term-independence
//!    estimator (Eq. 1) and a similarity-based alternative, computed
//!    from per-database content summaries.
//! 2. **Probabilistic relevancy model** ([`error`], [`ed`], [`rd`],
//!    [`query_type`]) — estimation errors (Eq. 2) learned per database
//!    and per query type as *error distributions* (EDs), converted at
//!    query time into *relevancy distributions* (RDs).
//! 3. **Expected correctness** ([`correctness`], [`expected`]) — exact
//!    `E[Cor_a]` / `E[Cor_p]` (Eqs. 3–6) over the RDs.
//! 4. **Selection** ([`selection`]) — the estimation-ranking baseline
//!    and the RD-based method (Section 3.3).
//! 5. **Adaptive probing** ([`probing`]) — the `APro` algorithm
//!    (Fig. 11) with the paper's greedy policy (Section 5.4) plus
//!    random / by-estimate / max-uncertainty / exhaustive-optimal
//!    comparison policies.
//! 6. **The metasearcher** ([`metasearcher`], [`fusion`]) — the one
//!    engine: train-then-serve pipeline with certainty-controlled
//!    selection and result fusion.
//!
//! The crate spawns no threads: every call runs on its caller's thread,
//! and the callers (mp-serve's worker pool, mp-eval's per-query map)
//! own all concurrency.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod config;
pub mod correctness;
pub mod ed;
pub mod engine;
pub mod error;
pub mod estimator;
pub mod expected;
pub mod fusion;
pub mod metasearcher;
pub mod persist;
pub mod probing;
pub mod query_type;
pub mod rd;
pub mod relevancy;
pub mod selection;

pub use config::CoreConfig;
pub use correctness::{absolute_correctness, partial_correctness, rank_order, CorrectnessMetric};
pub use ed::{EdLibrary, ErrorDistribution};
pub use estimator::{IndependenceEstimator, MaxSimilarityEstimator, RelevancyEstimator};
pub use expected::{expected_absolute, expected_partial, marginal_topk_prob, RdState};
pub use metasearcher::{MetasearchResult, Metasearcher};
pub use persist::{library_from_json, library_to_json, load_library, save_library};
pub use probing::{apro, AproConfig, AproOutcome, GreedyPolicy, ProbePolicy};
pub use query_type::QueryType;
pub use relevancy::RelevancyDef;
pub use selection::{baseline_select, best_set};
