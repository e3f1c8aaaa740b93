//! # mp-eval — experiment harness for `metaprobe`
//!
//! Reproduces every table and figure of the paper's evaluation
//! (Section 6) plus the ablations listed in `DESIGN.md` §4, against the
//! synthetic testbeds from `mp-corpus`:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`experiments::fig7_sampling`] | Fig. 7 — per-database χ² goodness vs sampling size |
//! | [`experiments::fig8_goodness`] | Fig. 8 — average goodness per sampling size |
//! | [`experiments::fig9_query_types`] | Fig. 9 — per-query-type EDs on one database |
//! | [`experiments::fig15_selection`] | Fig. 15 — baseline vs RD-based correctness (k = 1, 3) |
//! | [`experiments::fig16_probing`] | Fig. 16 — correctness vs number of probes |
//! | [`experiments::fig17_threshold`] | Fig. 17 — probes needed vs certainty threshold `t` |
//! | [`experiments::ablations`] | A1 policies, A2 θ sweep, A3 training size, A4 summaries |
//!
//! Shared machinery: [`Testbed`] (scenario + summaries + trained ED
//! library + golden standard, built on every core), [`runner`]
//! (per-query evaluation, fanned across cores by the same fork-join),
//! [`report`] (text tables + JSON reports).

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod experiments;
pub mod golden;
mod par;
pub mod report;
pub mod runner;
pub mod testbed;

pub use golden::GoldenStandard;
pub use report::TextTable;
pub use runner::MethodScores;
pub use testbed::{SummaryMode, Testbed, TestbedConfig};
