//! # mp-text — text-processing substrate for `metaprobe`
//!
//! Minimal, deterministic text pipeline used by the search-engine
//! substrate (`mp-index`) and the corpus generator (`mp-corpus`):
//!
//! * [`tokenize()`](tokenize::tokenize) — lowercase alphanumeric tokenization;
//! * [`stopwords`] — a compact English stopword list;
//! * [`Vocabulary`] — a term interner mapping strings to dense
//!   [`TermId`]s (all downstream code works on ids, never strings);
//! * [`stem()`](stem::stem) — a lightweight suffix-stripping stemmer (Porter subset)
//!   applied uniformly so queries and documents normalize identically.
//!
//! The full analysis chain is packaged as [`Analyzer`].

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod stem;
pub mod stopwords;
pub mod tokenize;
pub mod vocab;

pub use analyzer::Analyzer;
pub use stem::stem;
pub use stopwords::is_stopword;
pub use tokenize::tokenize;
pub use vocab::{TermId, Vocabulary};
