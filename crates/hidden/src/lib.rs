//! # mp-hidden — Hidden-Web database abstraction for `metaprobe`
//!
//! Models what a metasearcher can actually *do* with a Hidden-Web
//! database: submit a keyword query through its search interface and
//! read back a match count plus the top result documents — nothing else.
//! (paper Section 3.4: "many databases report the number of matching
//! documents in their answer page"; under the similarity definition the
//! metasearcher downloads the top documents and scores them.)
//!
//! * [`HiddenWebDatabase`] — the search-interface trait;
//! * [`SimulatedHiddenDb`] — a full in-process search engine behind that
//!   interface, with per-database **probe accounting** (every `search`
//!   is one probe; probing is the resource the paper's adaptive
//!   algorithm minimizes);
//! * [`ContentSummary`] — the `(term → df, |db|)` statistical summary a
//!   metasearcher keeps per database, either exported cooperatively
//!   (STARTS-style) or estimated by query-based sampling;
//! * [`Mediator`] — the set of mediated databases with their summaries;
//! * [`UnreliableDb`] — failure injection (outages, stale counts) for
//!   robustness testing.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod db;
pub mod mediator;
pub mod summary;
pub mod unreliable;

pub use db::{HiddenWebDatabase, SearchResponse, SimulatedHiddenDb};
pub use mediator::Mediator;
pub use summary::ContentSummary;
pub use unreliable::{ProbeBudget, UnreliableDb};
