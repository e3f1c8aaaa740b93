//! # mp-workload — query workload generator for `metaprobe`
//!
//! Stand-in for the paper's Overture Web-query trace (Section 6.1): the
//! evaluation needs streams of 2- and 3-term keyword queries whose terms
//! are *sometimes* correlated inside a database (in-topic picks) and
//! sometimes not (cross-topic / background picks) — that split is what
//! makes estimator errors query-dependent and motivates the paper's
//! query-type classification.
//!
//! * [`Query`] — a keyword query (term ids); [`Query::parse`] reads
//!   free text as its `mp_text::tokenize` tokens;
//! * [`QueryGenerator`] — seeded topic-driven generation;
//! * [`QueryTrace`] — a query set with helpers, including the
//!   train/test **disjoint split** the paper uses (`Q_train` learns EDs;
//!   `Q_test` measures correctness; no overlap);
//! * [`openloop`] — deterministic open-loop arrival schedules with
//!   Zipf hot-key skew, for serving benchmarks that need a fixed
//!   offered rate instead of a closed submit-wait loop.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod generator;
pub mod openloop;
pub mod query;
pub mod trace;

pub use generator::{QueryGenConfig, QueryGenerator};
pub use openloop::{arrivals, Arrival, OpenLoopConfig};
pub use query::Query;
pub use trace::{QueryTrace, TrainTestSplit};
