//! # mp-index — full-text search-engine substrate for `metaprobe`
//!
//! A compact, from-scratch inverted-index engine providing exactly the
//! capabilities a Hidden-Web search interface exposes in the paper:
//!
//! * **Boolean-AND match counting** — "number of matching documents",
//!   the surrogate for the document-frequency-based relevancy definition
//!   (paper Section 2.1);
//! * **tf-idf cosine top-k retrieval** — query-document similarity, the
//!   surrogate for the document-similarity-based definition;
//! * **df summary export** — the `(term, number of appearances)` table
//!   (paper Figure 2) a metasearcher keeps per mediated database.
//!
//! Build with [`IndexBuilder`]; query through [`InvertedIndex`].

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod builder;
pub(crate) mod derived;
pub mod document;
pub mod index;
pub mod scratch;
pub mod topk;
pub mod types;

pub use builder::IndexBuilder;
pub use document::Document;
pub use index::InvertedIndex;
pub use topk::TopK;
pub use types::{DocId, Posting, ScoredDoc};
