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
//!   worker pool ([`pool`], the crate's only thread source, one of the
//!   two thread owners with mp-eval's per-query fork-join);
//! * a **sharded LRU result cache** with **single-flight
//!   deduplication** ([`cache`]): completed
//!   [`MetasearchResult`](mp_core::MetasearchResult)s keyed by the full
//!   request identity ([`CacheKey`]), so repeated requests hit and
//!   concurrent identical ones compute once while everyone else joins
//!   the leader's flight;
//! * per-request **deadline checks** and a [`ServeStats`] snapshot
//!   (hits / misses / dedup joins / rejects / sheds / panics, p50/p99
//!   latency on the `mp_obs::bounds::LATENCY_US` buckets), mirrored
//!   into `mp-obs` for the existing `--obs-json` export path;
//! * **SLO shedding**: with [`ServeConfig::shed_p99_ms`] set, a request
//!   whose remaining deadline slack falls below a violated rolling p99
//!   is answered [`ServeError::Shed`] before any compute is spent on it;
//! * **failure containment**: a request whose computation panics is
//!   answered [`ServeError::Internal`], and its worker serves on.
//!
//! Every request takes one path: a worker pops it, checks its deadline
//! and the shed predicate, then answers it from the result cache, from
//! a joined flight, or by computing it.
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
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod cache;
mod pool;
pub mod queue;
mod server;
mod stats;

pub use cache::{CacheOutcome, LruCache, ShardedCache};
pub use queue::{BoundedQueue, TryPushError};
pub use server::{
    CacheKey, CacheStatus, Client, PolicySpec, ServeConfig, ServeError, ServeRequest,
    ServeResponse, Server, Ticket,
};
pub use stats::ServeStats;
