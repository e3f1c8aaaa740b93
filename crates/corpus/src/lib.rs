//! # mp-corpus — synthetic Hidden-Web corpus generator for `metaprobe`
//!
//! The paper evaluates on assets we cannot redistribute: 20 UCLA
//! newsgroups and 20 real health-related Hidden-Web databases, plus a
//! proprietary Overture query trace. This crate generates synthetic
//! equivalents that preserve the *one property everything hinges on*:
//! **term correlation**. Terms belonging to the same topic co-occur in
//! documents far more often than the term-independence assumption
//! predicts, so the independence estimator (paper Eq. 1)
//! *underestimates* the relevancy of databases that cover a query's
//! topic and *overestimates* (or trivially mis-estimates) databases that
//! do not — exactly the non-uniform error behaviour the paper's
//! probabilistic relevancy model captures (paper Section 2.3).
//!
//! The generative model:
//!
//! 1. a [`topic::TopicModel`] carves a shared vocabulary
//!    into Zipf-weighted topic vocabularies with controlled overlap plus
//!    a background pool;
//! 2. each document ([`document_gen`]) picks one primary (and sometimes
//!    one secondary) topic and mixes topic terms with background terms;
//! 3. each database ([`database_gen`]) draws documents from a
//!    [`database_gen::DatabaseSpec`] topic *mixture* —
//!    specialists, generalists, and news-style databases differ only in
//!    their mixtures;
//! 4. [`scenario`] packages the two evaluation settings as fully seeded,
//!    reproducible [`scenario::Scenario`]s.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod database_gen;
pub mod document_gen;
pub mod scenario;
pub mod topic;
pub mod words;

pub use database_gen::{generate_database, DatabaseSpec};
pub use document_gen::DocumentGenerator;
pub use scenario::{Scenario, ScenarioConfig, ScenarioKind};
pub use topic::{TopicId, TopicModel, TopicModelConfig};
