//! # mp-text — text-processing substrate for `metaprobe`
//!
//! The corpus generator (`mp-corpus`) produces term ids directly, so
//! text enters only at the query edge (`Query::parse` in
//! `mp-workload`). Two pieces serve it:
//!
//! * [`tokenize()`](tokenize::tokenize) — lowercase alphanumeric tokenization;
//! * [`Vocabulary`] — a term interner mapping strings to dense
//!   [`TermId`]s (all downstream code works on ids, never strings).

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod tokenize;
pub mod vocab;

pub use tokenize::tokenize;
pub use vocab::{TermId, Vocabulary};
