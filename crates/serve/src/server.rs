//! The server: shared state, request/response types, and the handler.
//!
//! A [`Server`] owns an `Arc<Metasearcher>` plus a result cache and a
//! stats block; worker threads (see [`crate::pool`]) call
//! [`Server::handle`](Server) on jobs drained from the bounded queue.
//!
//! The **result cache** is keyed by the full [`CacheKey`] (query terms,
//! `k`, threshold bits, metric, probe budget, policy) and holds
//! completed [`MetasearchResult`]s in `Arc`s, so a lookup, a publish and
//! a dedup join share one value rather than copying it; each
//! [`ServeResponse`] copies its result once, outside every lock. A
//! computed request derives its query's RDs itself, moves them into the
//! state it probes, and drops them when it ends: no RD vector outlives
//! its request.
//!
//! **Why results are worker-count-invariant.** Each request's answer is
//! a pure function of `(Metasearcher, request)`: the facade is shared
//! immutably, every policy is constructed fresh per computation from
//! its [`PolicySpec`] (a seeded `RandomPolicy` starts from the same
//! seed every time), and the engine underneath is sequential and
//! deterministic. Threads only change *which* request computes first;
//! a cache hit or a dedup join therefore hands back a clone of exactly
//! the value the computation would have produced.

use std::hash::{Hash, Hasher};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mp_core::probing::{
    ByEstimatePolicy, GreedyPolicy, ProbePolicy, RandomPolicy, UncertaintyPolicy,
};
use mp_core::{AproConfig, CorrectnessMetric, MetasearchResult, Metasearcher};
use mp_workload::Query;

use crate::cache::{CacheOutcome, ShardedCache};
use crate::pool;
use crate::queue::BoundedQueue;
use crate::stats::{ServeStats, StatsCore};

/// Lock shards of the result cache: contention control for the worker
/// pool.
const CACHE_SHARDS: usize = 8;

/// A probing policy *specification* — cheap to clone, hash, and
/// compare, and buildable into a fresh [`ProbePolicy`] per computation.
/// Part of the cache key: two requests share a cached result only when
/// they would have probed identically.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PolicySpec {
    /// The paper's greedy usefulness policy (stateless).
    Greedy,
    /// Uniformly random among unprobed databases, from a fixed seed.
    Random(u64),
    /// Probe the database that currently looks most relevant.
    ByEstimate,
    /// Probe the database with the highest RD variance.
    MaxUncertainty,
}

impl PolicySpec {
    /// Builds a fresh policy instance for one computation.
    pub fn build(&self) -> Box<dyn ProbePolicy> {
        match self {
            PolicySpec::Greedy => Box::new(GreedyPolicy),
            PolicySpec::Random(seed) => Box::new(RandomPolicy::new(*seed)),
            PolicySpec::ByEstimate => Box::new(ByEstimatePolicy),
            PolicySpec::MaxUncertainty => Box::new(UncertaintyPolicy),
        }
    }

    /// Resolves a CLI-style policy name (`random` takes `seed`).
    pub fn parse(name: &str, seed: u64) -> Option<Self> {
        match name {
            "greedy" => Some(PolicySpec::Greedy),
            "random" => Some(PolicySpec::Random(seed)),
            "by-estimate" => Some(PolicySpec::ByEstimate),
            "max-uncertainty" => Some(PolicySpec::MaxUncertainty),
            _ => None,
        }
    }

    /// The stable policy name (matches [`ProbePolicy::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            PolicySpec::Greedy => "greedy",
            PolicySpec::Random(_) => "random",
            PolicySpec::ByEstimate => "by-estimate",
            PolicySpec::MaxUncertainty => "max-uncertainty",
        }
    }
}

/// One query-serving request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// The keyword query.
    pub query: Query,
    /// Number of databases to select.
    pub k: usize,
    /// Required certainty threshold `t`.
    pub threshold: f64,
    /// Correctness metric the certainty is measured under.
    pub metric: CorrectnessMetric,
    /// Optional probe budget.
    pub max_probes: Option<usize>,
    /// Probing policy specification.
    pub policy: PolicySpec,
    /// Optional deadline, measured from submission; a request still
    /// queued past its deadline is answered `DeadlineExceeded` instead
    /// of computed.
    pub deadline: Option<Duration>,
}

impl ServeRequest {
    /// A request with the common defaults: partial correctness, no
    /// probe budget, greedy policy, no deadline.
    pub fn new(query: Query, k: usize, threshold: f64) -> Self {
        Self {
            query,
            k,
            threshold,
            metric: CorrectnessMetric::Partial,
            max_probes: None,
            policy: PolicySpec::Greedy,
            deadline: None,
        }
    }

    /// Replaces the probing policy.
    pub fn with_policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// Sets a deadline relative to submission.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    fn apro_config(&self) -> AproConfig {
        AproConfig {
            k: self.k,
            threshold: self.threshold,
            metric: self.metric,
            max_probes: self.max_probes,
        }
    }
}

/// The result-cache identity of a request: everything that influences
/// the computed answer. The threshold enters by *bit pattern* so the
/// key is `Eq`-clean without any float comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    query: Query,
    k: usize,
    threshold_bits: u64,
    metric: CorrectnessMetric,
    max_probes: Option<usize>,
    policy: PolicySpec,
}

impl CacheKey {
    fn of(req: &ServeRequest) -> Self {
        Self {
            query: req.query.clone(),
            k: req.k,
            threshold_bits: req.threshold.to_bits(),
            metric: req.metric,
            max_probes: req.max_probes,
            policy: req.policy.clone(),
        }
    }
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, h: &mut H) {
        // The query dominates the key's entropy; its stable FNV-1a
        // fingerprint feeds the hasher instead of term-by-term writes.
        h.write_u64(self.query.fingerprint());
        h.write_usize(self.k);
        h.write_u64(self.threshold_bits);
        h.write_u8(match self.metric {
            CorrectnessMetric::Absolute => 0,
            CorrectnessMetric::Partial => 1,
        });
        self.max_probes.hash(h);
        self.policy.hash(h);
    }
}

/// How a completed request's result was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Computed; the result cache had no entry.
    Miss,
    /// Served from the result cache.
    Hit,
    /// Joined a concurrent identical request's computation.
    Joined,
    /// Computed with caching disabled (capacity 0).
    Bypass,
}

/// A completed request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// The metasearch answer (identical to a direct
    /// [`Metasearcher::search`] call with the same parameters).
    pub result: MetasearchResult,
    /// How the result was obtained.
    pub cache: CacheStatus,
    /// Submission-to-completion latency, microseconds.
    pub latency_us: u64,
}

/// Why a request was not served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control: the request queue was full.
    Overload,
    /// The request's deadline passed before a worker picked it up.
    DeadlineExceeded,
    /// SLO shedding: the rolling p99 violated the configured limit
    /// ([`ServeConfig::shed_p99_ms`]) and this request's remaining
    /// deadline slack was below that p99, so computing it would have
    /// burned capacity on an answer that would arrive too late anyway.
    Shed,
    /// The serving session shut down before the request ran.
    Closed,
    /// The request's computation panicked. The worker caught the
    /// unwind, answered this request with this error, and serves on.
    Internal,
    /// Rejected at submit: the request cannot be answered as posed
    /// (`k` outside `1..=n_databases`, or a threshold that is not a
    /// finite value in `[0, 1]`). The payload says which.
    InvalidRequest(&'static str),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overload => write!(f, "request queue full (overload)"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded before execution"),
            ServeError::Shed => write!(f, "shed by SLO scheduler (p99 over limit)"),
            ServeError::Closed => write!(f, "serving session closed"),
            ServeError::Internal => write!(f, "internal error: the computation panicked"),
            ServeError::InvalidRequest(why) => write!(f, "invalid request: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Serving-layer tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads draining the request queue (min 1).
    pub workers: usize,
    /// Bounded request-queue capacity (admission control depth).
    pub queue_cap: usize,
    /// Result-cache capacity in entries; 0 disables caching and
    /// deduplication entirely.
    pub cache_cap: usize,
    /// Fused hits returned per query.
    pub fuse_limit: usize,
    /// Collect per-request waterfalls: each request runs under a
    /// [`mp_obs::TraceScope`], finished traces drain via
    /// [`Server::drain_traces`], and the worst ones persist in the
    /// flight recorder. Captures nothing while recording is switched
    /// off (`MP_OBS=0`, [`mp_obs::set_enabled`]).
    pub trace: bool,
    /// Flights (slow / deadline-missed / shed traces) the flight
    /// recorder retains; 0 disables it.
    pub flight_recorder_cap: usize,
    /// SLO shed limit: when set, a request whose remaining deadline
    /// slack is below the rolling p99 latency while that p99 exceeds
    /// this limit is answered [`ServeError::Shed`] instead of computed.
    /// `None` disables shedding. Deadline-free requests are never shed.
    /// The rolling p99 comes from the server's own window, which records
    /// whether or not recording is switched on, so shedding works under
    /// `MP_OBS=0` too.
    pub shed_p99_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_cap: 64,
            cache_cap: 1024,
            fuse_limit: 10,
            trace: false,
            flight_recorder_cap: 16,
            shed_p99_ms: None,
        }
    }
}

impl ServeConfig {
    /// A config with `workers` workers and `cache_cap` result-cache
    /// entries; other knobs default.
    pub fn new(workers: usize, cache_cap: usize) -> Self {
        Self {
            workers,
            cache_cap,
            ..Self::default()
        }
    }

    /// Toggles per-request trace collection.
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the SLO shed limit (see [`ServeConfig::shed_p99_ms`]).
    #[must_use]
    pub fn with_shed_p99_ms(mut self, limit_ms: Option<u64>) -> Self {
        self.shed_p99_ms = limit_ms;
        self
    }
}

/// The write-once response cell a [`Ticket`] waits on.
pub(crate) struct ResponseSlot {
    // mp-lint: allow(L9): per-request write-once cell — caller/worker pair, no sharing
    cell: std::sync::Mutex<Option<Result<ServeResponse, ServeError>>>,
    // mp-lint: allow(L9): signaled exactly once per request, off the probe loop
    ready: std::sync::Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        Self {
            // mp-lint: allow(L9): constructing the per-request slot, not acquiring
            cell: std::sync::Mutex::new(None),
            // mp-lint: allow(L9): constructing the per-request slot, not acquiring
            ready: std::sync::Condvar::new(),
        }
    }

    pub(crate) fn fill(&self, value: Result<ServeResponse, ServeError>) {
        let mut cell = self
            .cell
            .lock()
            .expect("mp-serve response slot mutex poisoned");
        debug_assert!(cell.is_none(), "a response slot is filled exactly once");
        *cell = Some(value);
        drop(cell);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<ServeResponse, ServeError> {
        let mut cell = self
            .cell
            .lock()
            .expect("mp-serve response slot mutex poisoned");
        loop {
            if let Some(value) = cell.take() {
                return value;
            }
            cell = self
                .ready
                .wait(cell)
                .expect("mp-serve response slot mutex poisoned");
        }
    }
}

/// A claim on one submitted request's eventual response.
pub struct Ticket {
    slot: Arc<ResponseSlot>,
}

impl Ticket {
    /// Blocks until the request completes (or is rejected post-queue).
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        self.slot.wait()
    }
}

/// One queued unit of work.
pub(crate) struct Job {
    pub(crate) req: ServeRequest,
    pub(crate) submitted: Instant,
    pub(crate) slot: Arc<ResponseSlot>,
    /// The request's deterministic id (allocated at submit; see
    /// [`StatsCore::next_trace_id`]).
    pub(crate) trace: mp_obs::TraceId,
    /// Queue depth observed at submit time.
    pub(crate) depth_at_submit: u32,
    /// Queue depth observed when a worker dequeued this job (set by the
    /// pool just before [`Server::handle`]).
    pub(crate) depth_at_dequeue: u32,
}

/// The submission handle available inside [`Server::run`]'s driver.
pub struct Client<'s> {
    server: &'s Server,
    queue: &'s BoundedQueue<Job>,
}

impl<'s> Client<'s> {
    pub(crate) fn new(server: &'s Server, queue: &'s BoundedQueue<Job>) -> Self {
        Self { server, queue }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the submit time measures queue wait and latency, never an answer"
    )]
    fn job(&self, req: ServeRequest) -> (Job, Ticket) {
        let slot = Arc::new(ResponseSlot::new());
        let ticket = Ticket {
            slot: Arc::clone(&slot),
        };
        (
            Job {
                req,
                submitted: Instant::now(),
                slot,
                trace: self.server.stats.next_trace_id(),
                depth_at_submit: u32::try_from(self.queue.len()).unwrap_or(u32::MAX),
                depth_at_dequeue: 0,
            },
            ticket,
        )
    }

    /// Rejects, before it reaches a worker, a request whose shape the
    /// selection engine would reject by panicking, and counts it in
    /// [`ServeStats::invalid`].
    fn validate(&self, req: &ServeRequest) -> Result<(), ServeError> {
        req.apro_config()
            .check(self.server.ms.mediator().len())
            .map_err(|why| {
                self.server.stats.invalid();
                ServeError::InvalidRequest(why)
            })
    }

    /// Submits without blocking; a full queue is an [`ServeError::Overload`]
    /// rejection (the admission-control path), and a malformed request an
    /// [`ServeError::InvalidRequest`].
    pub fn try_submit(&self, req: ServeRequest) -> Result<Ticket, ServeError> {
        self.validate(&req)?;
        let (job, ticket) = self.job(req);
        match self.queue.try_push(job) {
            Ok(()) => Ok(ticket),
            Err(crate::queue::TryPushError::Full(job)) => {
                self.server.stats.reject();
                if self.server.config.trace {
                    // A rejected request never reaches a worker, so
                    // build its (tiny) trace here: the id and the queue
                    // state that caused the rejection.
                    let mut trace = mp_obs::Trace::new(job.trace);
                    trace.annotate("serve.overload", 1);
                    trace.annotate(
                        "serve.queue_depth_at_submit",
                        u64::from(job.depth_at_submit),
                    );
                    self.server
                        .recorder
                        .offer(trace, 0, mp_obs::FlightReason::Overload);
                }
                Err(ServeError::Overload)
            }
            Err(crate::queue::TryPushError::Closed(_)) => Err(ServeError::Closed),
        }
    }

    /// Submits, waiting for queue space (back-pressure instead of
    /// shedding); fails only when the request is malformed
    /// ([`ServeError::InvalidRequest`]) or the session is closing.
    pub fn submit(&self, req: ServeRequest) -> Result<Ticket, ServeError> {
        self.validate(&req)?;
        let (job, ticket) = self.job(req);
        match self.queue.push_blocking(job) {
            Ok(()) => Ok(ticket),
            Err(_) => Err(ServeError::Closed),
        }
    }

    /// The server this client submits to.
    pub fn server(&self) -> &Server {
        self.server
    }
}

/// A concurrent, cache-backed serving front-end over a shared
/// [`Metasearcher`].
pub struct Server {
    ms: Arc<Metasearcher>,
    config: ServeConfig,
    results: ShardedCache<CacheKey, Arc<MetasearchResult>>,
    pub(crate) stats: StatsCore,
    /// Finished per-request waterfalls, striped per worker thread (no
    /// cross-worker lock on the completion path).
    sink: mp_obs::TraceSink,
    /// The worst traces (slow / deadline-missed / shed), bounded.
    pub(crate) recorder: mp_obs::FlightRecorder,
}

impl Server {
    /// Builds a server over a shared trained facade.
    pub fn new(ms: Arc<Metasearcher>, config: ServeConfig) -> Self {
        Self {
            results: ShardedCache::new(config.cache_cap, CACHE_SHARDS),
            ms,
            stats: StatsCore::new(),
            sink: mp_obs::TraceSink::new(),
            recorder: mp_obs::FlightRecorder::new(config.flight_recorder_cap),
            config,
        }
    }

    /// The shared metasearcher.
    pub fn metasearcher(&self) -> &Arc<Metasearcher> {
        &self.ms
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// A snapshot of this server's counters and latency quantiles.
    pub fn stats(&self) -> ServeStats {
        self.stats.snapshot()
    }

    /// Closes the current rolling-latency tick (see
    /// [`ServeStats::rolling_p99_us`]): call once per batch, pass, or
    /// wall-clock interval — whatever "tick" means to the driver.
    pub fn tick_window(&self) {
        self.stats.tick();
    }

    /// Removes and returns every finished per-request trace collected
    /// since the last drain, sorted by [`mp_obs::TraceId`]. Empty
    /// unless [`ServeConfig::trace`] is set and recording is switched on.
    pub fn drain_traces(&self) -> Vec<mp_obs::Trace> {
        self.sink.drain()
    }

    /// The flight recorder holding the worst request traces.
    pub fn flight_recorder(&self) -> &mp_obs::FlightRecorder {
        &self.recorder
    }

    /// Entries currently in the result cache.
    pub fn cache_len(&self) -> usize {
        self.results.len()
    }

    /// Runs a serving session: spawns the worker pool, hands the
    /// driver a [`Client`], and tears the pool down (draining accepted
    /// requests) when the driver returns.
    pub fn run<R>(&self, driver: impl FnOnce(&Client<'_>) -> R) -> R {
        pool::run_scoped(self, driver)
    }

    /// Convenience wrapper: submits every request with back-pressure
    /// and returns the responses in request order.
    pub fn serve_batch(
        &self,
        requests: impl IntoIterator<Item = ServeRequest>,
    ) -> Vec<Result<ServeResponse, ServeError>> {
        self.run(move |client| {
            let tickets: Vec<Result<Ticket, ServeError>> =
                requests.into_iter().map(|r| client.submit(r)).collect();
            tickets
                .into_iter()
                .map(|t| t.and_then(Ticket::wait))
                .collect()
        })
    }

    /// The full per-request computation: a sequential
    /// [`Metasearcher::search`] with a fresh policy.
    fn compute(&self, req: &ServeRequest) -> Arc<MetasearchResult> {
        let mut policy = req.policy.build();
        Arc::new(self.ms.search(
            &req.query,
            req.apro_config(),
            policy.as_mut(),
            self.config.fuse_limit,
        ))
    }

    /// Executes one job: deadline check, SLO shed check, cache/dedup
    /// lookup, compute, stats, response. Called from worker threads.
    ///
    /// When [`ServeConfig::trace`] is set the whole execution runs
    /// under a [`mp_obs::TraceScope`] anchored at the *submit* instant,
    /// so the waterfall starts with the queue wait; the finished trace
    /// lands in this worker's sink shard and is offered to the flight
    /// recorder (reason `Slow`, or `DeadlineMissed` / `Shed` on the
    /// early-outs, or `Panicked`).
    ///
    /// A panic in the lookup or the computation stays with this
    /// request: it is answered [`ServeError::Internal`] and counted in
    /// [`ServeStats::panicked`], and the worker replaces its retrieval
    /// scratch (an unwound kernel may have left it dirty) before it
    /// takes the next job. A panicking cache leader abandons its
    /// flight, so each follower recomputes, and fails, on its own.
    pub(crate) fn handle(&self, job: Job) {
        let Job {
            req,
            submitted,
            slot,
            trace,
            depth_at_submit,
            depth_at_dequeue,
        } = job;
        let queue_wait_ns = u64::try_from(submitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let scope = self
            .config
            .trace
            .then(|| mp_obs::TraceScope::begin(trace, submitted));
        if scope.is_some() {
            mp_obs::trace_stage("serve.queue_wait", 0, queue_wait_ns);
            mp_obs::trace_annotate("serve.queue_depth_at_submit", u64::from(depth_at_submit));
            mp_obs::trace_annotate("serve.queue_depth_at_dequeue", u64::from(depth_at_dequeue));
        }
        if let Some(deadline) = req.deadline {
            let elapsed = submitted.elapsed();
            if elapsed > deadline {
                self.stats.deadline_miss();
                self.land_trace(
                    scope,
                    queue_wait_ns / 1_000,
                    mp_obs::FlightReason::DeadlineMissed,
                );
                slot.fill(Err(ServeError::DeadlineExceeded));
                return;
            }
            if let Some(limit_ms) = self.config.shed_p99_ms {
                let remaining_us =
                    u64::try_from((deadline - elapsed).as_micros()).unwrap_or(u64::MAX);
                let limit_us = limit_ms.saturating_mul(1_000);
                if should_shed(remaining_us, self.stats.rolling_p99_us(), limit_us) {
                    self.stats.shed();
                    if scope.is_some() {
                        mp_obs::trace_annotate("serve.shed", 1);
                    }
                    self.land_trace(scope, queue_wait_ns / 1_000, mp_obs::FlightReason::Shed);
                    slot.fill(Err(ServeError::Shed));
                    return;
                }
            }
        }
        let computed = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // The span closes (and enters the waterfall) before the
            // trace scope finishes below.
            let _span = mp_obs::span!("serve.request");
            if self.results.is_active() {
                let key = CacheKey::of(&req);
                let (result, outcome) = self.results.get_or_compute(key, || self.compute(&req));
                let status = match outcome {
                    CacheOutcome::Hit => CacheStatus::Hit,
                    CacheOutcome::Computed => CacheStatus::Miss,
                    CacheOutcome::Joined => CacheStatus::Joined,
                };
                (result, status)
            } else {
                (self.compute(&req), CacheStatus::Bypass)
            }
        }));
        let Ok((result, status)) = computed else {
            self.stats.panicked();
            if scope.is_some() {
                mp_obs::trace_annotate("serve.panicked", 1);
            }
            let latency_us = u64::try_from(submitted.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.land_trace(scope, latency_us, mp_obs::FlightReason::Panicked);
            mp_index::scratch::discard();
            mp_index::scratch::warm(self.ms.mediator().max_size_hint());
            slot.fill(Err(ServeError::Internal));
            return;
        };
        if scope.is_some() {
            let status_name = match status {
                CacheStatus::Hit => "serve.cache_hit",
                CacheStatus::Miss => "serve.cache_miss",
                CacheStatus::Joined => "serve.dedup_join",
                CacheStatus::Bypass => "serve.cache_bypass",
            };
            mp_obs::trace_annotate(status_name, 1);
        }
        let latency_us = u64::try_from(submitted.elapsed().as_micros()).unwrap_or(u64::MAX);
        // Completion stats record *before* the scope finishes so the
        // latency histogram's exemplar slot sees this TraceId.
        self.stats.complete(status, latency_us);
        self.land_trace(scope, latency_us, mp_obs::FlightReason::Slow);
        slot.fill(Ok(ServeResponse {
            result: Arc::unwrap_or_clone(result),
            cache: status,
            latency_us,
        }));
    }

    /// Finishes a request's trace scope, if one is active: the waterfall
    /// goes to this worker's sink shard and to the flight recorder,
    /// tagged `reason`.
    fn land_trace(
        &self,
        scope: Option<mp_obs::TraceScope>,
        latency_us: u64,
        reason: mp_obs::FlightReason,
    ) {
        if let Some(finished) = scope.and_then(mp_obs::TraceScope::finish) {
            self.sink.push(finished.clone());
            self.recorder.offer(finished, latency_us, reason);
        }
    }

    /// Test hook: stages a tail-latency observation in the rolling
    /// window (stats counters untouched), so shed-policy tests can
    /// simulate a p99 regression without sleeping through one.
    #[doc(hidden)]
    pub fn record_window_latency_for_test(&self, latency_us: u64) {
        self.stats.record_window_latency(latency_us);
    }
}

/// The SLO shed predicate for a request with `remaining_us` of deadline
/// slack under a p99 limit of `limit_us`: shed exactly when the rolling
/// p99 violates the limit (a healthy server sheds nothing) and the
/// slack is below that p99, so a typical-tail completion would miss
/// the deadline anyway and computing it would burn capacity the
/// backlog needs. The caller rules out the rest: a server without a
/// limit sheds nothing, and neither does a request without a deadline,
/// for which "would finish too late" is undefined.
fn should_shed(remaining_us: u64, rolling_p99_us: u64, limit_us: u64) -> bool {
    rolling_p99_us > limit_us && remaining_us < rolling_p99_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_specs_roundtrip_names() {
        for (name, spec) in [
            ("greedy", PolicySpec::Greedy),
            ("random", PolicySpec::Random(9)),
            ("by-estimate", PolicySpec::ByEstimate),
            ("max-uncertainty", PolicySpec::MaxUncertainty),
        ] {
            assert_eq!(PolicySpec::parse(name, 9), Some(spec.clone()));
            assert_eq!(spec.name(), name);
            assert_eq!(spec.build().name(), name);
        }
        assert_eq!(PolicySpec::parse("optimal-but-wrong", 0), None);
    }

    #[test]
    fn cache_key_separates_parameters() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::BuildHasher;
        let q = Query::new([mp_text::TermId(1), mp_text::TermId(2)]);
        let base = ServeRequest::new(q, 2, 0.9);
        let same = CacheKey::of(&base);
        assert_eq!(CacheKey::of(&base.clone()), same);
        let mut other = base.clone();
        other.threshold = 0.95;
        assert_ne!(CacheKey::of(&other), same);
        let mut other = base.clone();
        other.policy = PolicySpec::Random(1);
        assert_ne!(CacheKey::of(&other), same);
        let mut other = base.clone();
        other.k = 3;
        assert_ne!(CacheKey::of(&other), same);
        // Hash is consistent with Eq for the equal pair.
        let bh = std::hash::BuildHasherDefault::<DefaultHasher>::default();
        assert_eq!(bh.hash_one(CacheKey::of(&base)), bh.hash_one(&same));
    }

    #[test]
    fn serve_error_displays() {
        assert!(ServeError::Overload.to_string().contains("queue full"));
        assert!(ServeError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        assert!(ServeError::Closed.to_string().contains("closed"));
        assert!(ServeError::Internal.to_string().contains("panicked"));
    }

    #[test]
    fn shed_requires_a_violated_p99_and_short_slack() {
        // SLO healthy (p99 at/below limit): never shed.
        assert!(!should_shed(1, 500, 500));
        // SLO violated but this request has slack >= p99: keep it.
        assert!(!should_shed(600, 600, 500));
        // SLO violated and the request cannot make it: shed.
        assert!(should_shed(599, 600, 500));
        assert!(should_shed(0, 600, 500));
    }

    /// A queue-full rejection is an `overload` flight, counted in
    /// `rejects`; `shed` flights and `sheds` belong to the SLO shedder.
    #[test]
    fn queue_full_rejection_records_an_overload_flight() {
        use mp_core::{CoreConfig, IndependenceEstimator, RelevancyDef};
        use mp_hidden::{ContentSummary, HiddenWebDatabase, Mediator, SimulatedHiddenDb};
        use mp_index::{Document, IndexBuilder};
        use mp_text::TermId;

        mp_obs::set_enabled(true);
        let mut builder = IndexBuilder::new();
        builder.add(Document::from_terms([TermId(1)]));
        let index = builder.build();
        let summary = ContentSummary::cooperative(&index);
        let db: Arc<dyn HiddenWebDatabase> = Arc::new(SimulatedHiddenDb::new("db", index));
        let ms = Metasearcher::train(
            Mediator::new(vec![db], vec![summary]),
            Box::new(IndependenceEstimator),
            RelevancyDef::DocFrequency,
            &[],
            CoreConfig::default(),
        );
        let server = Server::new(ms.shared(), ServeConfig::new(1, 0).with_trace(true));
        // No workers drain this queue: its one slot stays taken.
        let queue = BoundedQueue::new(1);
        let client = Client::new(&server, &queue);
        let req = ServeRequest::new(Query::new([TermId(1)]), 1, 0.5);
        let _held = client
            .try_submit(req.clone())
            .expect("the one slot is free");
        assert_eq!(client.try_submit(req).err(), Some(ServeError::Overload));
        let stats = server.stats();
        assert_eq!((stats.rejects, stats.sheds), (1, 0));
        let flights = server.flight_recorder().flights();
        assert_eq!(flights.len(), 1);
        assert_eq!(flights[0].reason.as_str(), "overload");
        assert!(flights[0].trace.has_event("serve.overload"));
    }
}
