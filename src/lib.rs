//! # metaprobe
//!
//! A production-quality Rust reproduction of *"A Probabilistic Approach
//! to Metasearching with Adaptive Probing"* (Liu, Luo, Cho, Chu — ICDE
//! 2004): probabilistic relevancy modelling and adaptive probing for
//! Hidden-Web database selection, together with every substrate the
//! system needs — a from-scratch search engine, a Hidden-Web interface
//! simulator, a synthetic corpus generator, a query-workload generator,
//! and the full experiment harness that regenerates the paper's tables
//! and figures.
//!
//! This umbrella crate re-exports the workspace members and hosts the
//! runnable examples (`examples/`) and cross-crate integration tests
//! (`tests/`). Start with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! or go straight to the paper reproduction:
//!
//! ```text
//! cargo run --release -p mp-bench --bin repro -- --quick
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`mp_core`] | the paper's contribution: EDs, RDs, expected correctness, `APro` |
//! | [`mp_stats`] | distributions, χ² tests, Poisson-binomial, samplers |
//! | [`mp_text`] | tokenization, term interning |
//! | [`mp_index`] | inverted index: boolean counts + tf-idf cosine |
//! | [`mp_corpus`] | synthetic Hidden-Web corpora with controlled term correlation |
//! | [`mp_hidden`] | the search-interface abstraction + probe accounting |
//! | [`mp_workload`] | 2-/3-term query traces with disjoint splits |
//! | [`mp_eval`] | experiment harness for every table and figure |
//! | [`mp_serve`] | concurrent, cache-backed query-serving front-end |
//! | [`mp_obs`] | zero-dependency spans + metrics over the whole pipeline |

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub use mp_core as core;
pub use mp_corpus as corpus;
pub use mp_eval as eval;
pub use mp_hidden as hidden;
pub use mp_index as index;
pub use mp_obs as obs;
pub use mp_serve as serve;
pub use mp_stats as stats;
pub use mp_text as text;
pub use mp_workload as workload;

/// Convenience re-exports of the types most programs start from.
pub mod prelude {
    pub use mp_core::{
        AproConfig, CoreConfig, CorrectnessMetric, GreedyPolicy, IndependenceEstimator,
        Metasearcher, RelevancyDef,
    };
    pub use mp_corpus::{Scenario, ScenarioConfig, ScenarioKind};
    pub use mp_hidden::{ContentSummary, HiddenWebDatabase, Mediator, SimulatedHiddenDb};
    pub use mp_serve::{ServeConfig, ServeRequest, Server};
    pub use mp_workload::{Query, QueryGenConfig, TrainTestSplit};
}
