//! # mp-serve — a concurrent, cache-backed query-serving front-end
//!
//! The paper frames the metasearcher as a long-lived mediator answering
//! a query *stream* (Figure 1); this crate is that serving tier. It
//! wraps a shared, immutable [`Arc<Metasearcher>`](mp_core::Metasearcher)
//! in:
//!
//! * a **bounded MPMC request queue** with admission control — a full
//!   queue rejects with a typed [`ServeError::Overload`] instead of
//!   buffering unboundedly — drained by a fixed-size `thread::scope`
//!   worker pool ([`pool`], the crate's only thread source, L4-exempt
//!   like mp-eval's per-query fork-join);
//! * a **sharded LRU cache** with **single-flight deduplication**
//!   ([`cache`]): repeated queries hit, concurrent identical queries
//!   compute once and everyone else joins the leader's flight. Two
//!   layers mirror the pipeline — RD vectors keyed by query, completed
//!   [`MetasearchResult`](mp_core::MetasearchResult)s keyed by the full
//!   request identity ([`CacheKey`]);
//! * per-request **deadline checks** and a [`ServeStats`] snapshot
//!   (hits / misses / dedup joins / rejects / sheds, p50/p99 latency on
//!   the `mp_obs::bounds::LATENCY_US` buckets), mirrored into `mp-obs`
//!   for the existing `--obs-json` export path;
//! * **term-sharing batched execution** ([`batch`]): with
//!   [`ServeConfig::batch_window`] > 1 a worker drains up to a window
//!   of queued requests at once, dedups identical keys, and runs the
//!   remaining cold misses that share query terms through the batched
//!   engine — one postings traversal per shared term — bit-identical
//!   to per-request execution;
//! * **SLO-aware scheduling**: batches execute earliest-deadline-first,
//!   and with [`ServeConfig::shed_p99_ms`] set, requests whose
//!   remaining deadline slack falls below a violated rolling p99 are
//!   answered [`ServeError::Shed`] before any compute is spent on them.
//!
//! **Determinism contract.** Serving is a scheduler, not a computation:
//! for any worker count and any cache configuration, the response to a
//! request is value-identical to a direct sequential
//! `Metasearcher::search` call with the same parameters (policies are
//! rebuilt per computation from their [`PolicySpec`]; the engine below
//! is sequential and deterministic). The equivalence test in
//! `tests/equivalence.rs` pins this for 1/4/8 workers × cache on/off
//! against the sequential baseline.
//!
//! ```no_run
//! use mp_serve::{Server, ServeConfig, ServeRequest};
//! # fn demo(ms: mp_core::Metasearcher, queries: Vec<mp_workload::Query>) {
//! let server = Server::new(ms.shared(), ServeConfig::new(4, 1024));
//! let responses = server.serve_batch(
//!     queries.into_iter().map(|q| ServeRequest::new(q, 2, 0.9)),
//! );
//! let stats = server.stats();
//! println!("hits {} misses {} p99 {}µs", stats.hits, stats.misses, stats.p99_us);
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
mod pool;
pub mod queue;
mod server;
mod stats;

pub use cache::{CacheOutcome, Claim, FlightWaiter, Lease, LruCache, ShardedCache};
pub use queue::{BoundedQueue, TryPushError};
pub use server::{
    CacheKey, CacheStatus, Client, PolicySpec, ServeConfig, ServeError, ServeRequest,
    ServeResponse, Server, Ticket,
};
pub use stats::ServeStats;
