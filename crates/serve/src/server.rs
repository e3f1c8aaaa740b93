//! The server: shared state, request/response types, and the handler.
//!
//! A [`Server`] owns an `Arc<Metasearcher>` plus two caches and a stats
//! block; worker threads (see [`crate::pool`]) call
//! [`Server::handle`](Server) on jobs drained from the bounded queue.
//! The caches are layered the way the pipeline is:
//!
//! * an **RD cache** keyed by the [`Query`] alone — the relevancy
//!   distributions depend only on the query (estimates + trained EDs),
//!   so every `(k, threshold, policy)` variant of a query shares them;
//! * a **result cache** keyed by the full [`CacheKey`] (query terms,
//!   `k`, threshold bits, metric, probe budget, policy), holding
//!   completed [`MetasearchResult`]s.
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
use std::sync::Arc;
use std::time::{Duration, Instant};

use mp_core::probing::{
    ByEstimatePolicy, GreedyPolicy, ProbePolicy, RandomPolicy, UncertaintyPolicy,
};
use mp_core::{AproConfig, CorrectnessMetric, MetasearchResult, Metasearcher};
use mp_stats::Discrete;
use mp_workload::Query;

use crate::cache::{CacheOutcome, Claim, FlightWaiter, ShardedCache};
use crate::pool;
use crate::queue::BoundedQueue;
use crate::stats::{ServeStats, StatsCore};

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
    /// The analyzed keyword query.
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
    /// RD-cache capacity in entries (follows `cache_cap` semantics).
    pub rd_cache_cap: usize,
    /// Shards per cache (contention control).
    pub cache_shards: usize,
    /// Fused hits returned per query.
    pub fuse_limit: usize,
    /// Collect per-request waterfalls: each request runs under a
    /// [`mp_obs::TraceScope`], finished traces drain via
    /// [`Server::drain_traces`], and the worst ones persist in the
    /// flight recorder. Requires the `obs` feature and runtime
    /// recording to actually capture anything.
    pub trace: bool,
    /// Flights (slow / deadline-missed / shed traces) the flight
    /// recorder retains; 0 disables it.
    pub flight_recorder_cap: usize,
    /// Maximum requests a worker drains from the queue into one batch
    /// (min 1; 1 = per-request execution, the classic path). A worker
    /// blocks for the *first* request only — the rest of the window is
    /// whatever is already queued, so an idle server never waits to
    /// fill a batch. Cold misses inside a batch that share query terms
    /// are executed through the batched engine (one postings traversal
    /// per shared term), bit-identical to per-request execution.
    pub batch_window: usize,
    /// SLO shed limit: when set, a request whose remaining deadline
    /// slack is below the rolling p99 latency while that p99 exceeds
    /// this limit is answered [`ServeError::Shed`] instead of computed.
    /// `None` disables shedding. Deadline-free requests are never shed.
    /// The rolling p99 is obs-gated: with recording off it reads 0 and
    /// nothing sheds.
    pub shed_p99_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_cap: 64,
            cache_cap: 1024,
            rd_cache_cap: 1024,
            cache_shards: 8,
            fuse_limit: 10,
            trace: false,
            flight_recorder_cap: 16,
            batch_window: 1,
            shed_p99_ms: None,
        }
    }
}

impl ServeConfig {
    /// A config with `workers` workers and `cache_cap` result-cache
    /// entries (RD cache sized identically); other knobs default.
    pub fn new(workers: usize, cache_cap: usize) -> Self {
        Self {
            workers,
            cache_cap,
            rd_cache_cap: cache_cap,
            ..Self::default()
        }
    }

    /// Toggles per-request trace collection.
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the batch window (see [`ServeConfig::batch_window`]).
    #[must_use]
    pub fn with_batch_window(mut self, window: usize) -> Self {
        self.batch_window = window;
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
        let why = if req.k == 0 {
            "k must be at least 1"
        } else if req.k > self.server.ms.mediator().len() {
            "k exceeds the number of databases"
        } else if !(0.0..=1.0).contains(&req.threshold) {
            "threshold must be a finite value in [0, 1]"
        } else {
            return Ok(());
        };
        self.server.stats.invalid();
        Err(ServeError::InvalidRequest(why))
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
                    // A shed request never reaches a worker, so build
                    // its (tiny) trace here: the id and the queue state
                    // that caused the rejection.
                    let mut trace = mp_obs::Trace::new(job.trace);
                    trace.annotate("serve.shed", 1);
                    trace.annotate(
                        "serve.queue_depth_at_submit",
                        u64::from(job.depth_at_submit),
                    );
                    self.server
                        .recorder
                        .offer(trace, 0, mp_obs::FlightReason::Shed);
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
    results: ShardedCache<CacheKey, MetasearchResult>,
    rds: ShardedCache<Query, Vec<Discrete>>,
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
        let shards = config.cache_shards.max(1);
        Self {
            results: ShardedCache::new(config.cache_cap, shards),
            rds: ShardedCache::new(config.rd_cache_cap, shards),
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
    /// unless [`ServeConfig::trace`] is set (and the `obs` feature is
    /// compiled in with recording enabled).
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

    /// Drops both caches' entries (stats are kept).
    pub fn clear_cache(&self) {
        self.results.clear();
        self.rds.clear();
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

    /// The full per-request computation (both caches cold).
    fn compute(&self, req: &ServeRequest) -> MetasearchResult {
        let (rds, rd_outcome) = self
            .rds
            .get_or_compute(req.query.clone(), || self.ms.rds(&req.query));
        self.stats.rd_lookup(rd_outcome == CacheOutcome::Hit);
        let mut policy = req.policy.build();
        self.ms.search_with_rds(
            &req.query,
            rds,
            req.apro_config(),
            policy.as_mut(),
            self.config.fuse_limit,
        )
    }

    /// Executes one job: deadline check, cache/dedup lookup, compute,
    /// stats, response. Called from worker threads.
    ///
    /// When [`ServeConfig::trace`] is set the whole execution runs
    /// under a [`mp_obs::TraceScope`] anchored at the *submit* instant,
    /// so the waterfall starts with the queue wait; the finished trace
    /// lands in this worker's sink shard and is offered to the flight
    /// recorder (reason `Slow`, or `DeadlineMissed` on the early-out).
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
                if let Some(finished) = scope.and_then(mp_obs::TraceScope::finish) {
                    let latency_us = queue_wait_ns / 1_000;
                    self.sink.push(finished.clone());
                    self.recorder
                        .offer(finished, latency_us, mp_obs::FlightReason::DeadlineMissed);
                }
                slot.fill(Err(ServeError::DeadlineExceeded));
                return;
            }
            if self.config.shed_p99_ms.is_some() {
                let remaining_us =
                    u64::try_from((deadline - elapsed).as_micros()).unwrap_or(u64::MAX);
                if self.should_shed(Some(remaining_us)) {
                    self.shed_job(scope, queue_wait_ns, &slot);
                    return;
                }
            }
        }
        let (result, status) = {
            // Scoped so the span closes (and enters the waterfall)
            // before the trace scope finishes below.
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
        if let Some(finished) = scope.and_then(mp_obs::TraceScope::finish) {
            self.sink.push(finished.clone());
            self.recorder
                .offer(finished, latency_us, mp_obs::FlightReason::Slow);
        }
        slot.fill(Ok(ServeResponse {
            result,
            cache: status,
            latency_us,
        }));
    }

    /// Whether the SLO scheduler sheds a request with this much
    /// remaining deadline slack right now (see [`crate::batch`]).
    fn should_shed(&self, remaining_us: Option<u64>) -> bool {
        let Some(limit_ms) = self.config.shed_p99_ms else {
            return false;
        };
        crate::batch::should_shed(
            remaining_us,
            self.stats.rolling_p99_us(),
            Some(limit_ms.saturating_mul(1_000)),
        )
    }

    /// Rejects one job as shed: stats, flight-recorder entry, error.
    fn shed_job(&self, scope: Option<mp_obs::TraceScope>, queue_wait_ns: u64, slot: &ResponseSlot) {
        self.stats.shed();
        if scope.is_some() {
            mp_obs::trace_annotate("serve.shed", 1);
        }
        if let Some(finished) = scope.and_then(mp_obs::TraceScope::finish) {
            self.sink.push(finished.clone());
            self.recorder
                .offer(finished, queue_wait_ns / 1_000, mp_obs::FlightReason::Shed);
        }
        slot.fill(Err(ServeError::Shed));
    }

    /// Test hook: stages a tail-latency observation in the rolling
    /// window (stats counters untouched), so shed-policy tests can
    /// simulate a p99 regression without sleeping through one.
    #[doc(hidden)]
    pub fn record_window_latency_for_test(&self, latency_us: u64) {
        self.stats.record_window_latency(latency_us);
    }

    /// Executes one drained batch of jobs: EDF-ordered admission
    /// (deadline check, SLO shed), cache claims, then every cold miss
    /// in the batch computed through the **batched engine** — misses
    /// sharing query terms share postings traversals — and finally the
    /// per-job responses. Called from worker threads when
    /// [`ServeConfig::batch_window`] > 1.
    ///
    /// Responses are bit-identical to feeding the same jobs through
    /// [`Server::handle`] one at a time: admission decisions are
    /// per-job, dedup joins hand back the leader's exact value, and the
    /// batched engine is bit-identical to per-request execution
    /// (`mp-core`'s batch-equivalence contract).
    ///
    /// **Deadlock freedom.** A worker claims leadership (leases) for
    /// its own cold keys, computes and fulfills them all, and only
    /// *then* blocks on flights led by other workers — it never sleeps
    /// on a foreign flight while holding an unfulfilled lease.
    pub(crate) fn handle_batch(&self, mut jobs: Vec<Job>) {
        if jobs.len() == 1 {
            return self.handle(jobs.pop().expect("len checked"));
        }
        let _span = mp_obs::span!("serve.batch");
        let n = jobs.len();
        self.stats.batch(n);
        // One clock read for the whole batch: every scheduling decision
        // below is pure arithmetic over these slacks (crate::batch).
        let now = Instant::now();
        let remaining_us: Vec<Option<u64>> = jobs
            .iter()
            .map(|job| {
                job.req.deadline.map(|d| {
                    let elapsed = now.duration_since(job.submitted);
                    u64::try_from(d.saturating_sub(elapsed).as_micros()).unwrap_or(u64::MAX)
                })
            })
            .collect();
        let expired: Vec<bool> = jobs
            .iter()
            .map(|job| {
                job.req
                    .deadline
                    .is_some_and(|d| now.duration_since(job.submitted) > d)
            })
            .collect();
        let order = crate::batch::edf_order(&remaining_us);
        let shed_limit_us = self.config.shed_p99_ms.map(|ms| ms.saturating_mul(1_000));
        let rolling_p99_us = if shed_limit_us.is_some() {
            self.stats.rolling_p99_us()
        } else {
            0
        };

        // Per-job resolution state, filled in EDF order.
        let mut errors: Vec<Option<ServeError>> = (0..n).map(|_| None).collect();
        let mut resolved: Vec<Option<(MetasearchResult, CacheStatus)>> =
            (0..n).map(|_| None).collect();
        let mut waiters: Vec<Option<FlightWaiter<MetasearchResult>>> =
            (0..n).map(|_| None).collect();
        let mut leases = Vec::new();
        let mut dup_of: Vec<Option<usize>> = (0..n).map(|_| None).collect();
        let mut cold: Vec<usize> = Vec::new();
        let mut rep_of: std::collections::HashMap<CacheKey, usize> =
            std::collections::HashMap::new();
        for _ in 0..n {
            leases.push(None);
        }
        for &j in &order {
            if expired[j] {
                errors[j] = Some(ServeError::DeadlineExceeded);
                continue;
            }
            if crate::batch::should_shed(remaining_us[j], rolling_p99_us, shed_limit_us) {
                errors[j] = Some(ServeError::Shed);
                continue;
            }
            if !self.results.is_active() {
                // Caching off: no dedup (matching the per-request
                // bypass), but cold computation still batches below.
                cold.push(j);
                continue;
            }
            let key = CacheKey::of(&jobs[j].req);
            if let Some(&rep) = rep_of.get(&key) {
                // In-batch duplicate: resolved from its representative
                // after the cold pass — never a second claim (which
                // would deadlock a worker on its own flight).
                dup_of[j] = Some(rep);
                continue;
            }
            match self.results.get_or_claim(key.clone()) {
                Claim::Cached(v) => resolved[j] = Some((v, CacheStatus::Hit)),
                Claim::Pending(w) => waiters[j] = Some(w),
                Claim::Lease(lease) => {
                    leases[j] = Some(lease);
                    cold.push(j);
                }
            }
            rep_of.insert(key, j);
        }

        // Cold pass: group the misses by shared query terms and run
        // each component through the batched engine. RD vectors come
        // from the query-keyed cache exactly as on the per-request path.
        if !cold.is_empty() {
            let term_refs: Vec<&[_]> = cold.iter().map(|&j| jobs[j].req.query.terms()).collect();
            for group in crate::batch::term_groups(&term_refs) {
                let items: Vec<mp_core::BatchQuery<'_>> = group
                    .iter()
                    .map(|&gi| {
                        let req = &jobs[cold[gi]].req;
                        let (rds, rd_outcome) = self
                            .rds
                            .get_or_compute(req.query.clone(), || self.ms.rds(&req.query));
                        self.stats.rd_lookup(rd_outcome == CacheOutcome::Hit);
                        mp_core::BatchQuery {
                            query: &req.query,
                            rds,
                            config: req.apro_config(),
                            policy: req.policy.build(),
                        }
                    })
                    .collect();
                let results = self.ms.search_batch_with_rds(items, self.config.fuse_limit);
                for (&gi, result) in group.iter().zip(results) {
                    let j = cold[gi];
                    let status = match leases[j].take() {
                        Some(lease) => {
                            lease.fulfill(result.clone());
                            CacheStatus::Miss
                        }
                        None => CacheStatus::Bypass,
                    };
                    resolved[j] = Some((result, status));
                }
            }
        }

        // Only now — every own lease fulfilled — block on flights led
        // by other workers. An abandoned flight (leader panicked) falls
        // back to the ordinary compute-or-join path.
        for j in 0..n {
            let Some(waiter) = waiters[j].take() else {
                continue;
            };
            let (result, status) = match waiter.wait() {
                Some(v) => (v, CacheStatus::Joined),
                None => {
                    let key = CacheKey::of(&jobs[j].req);
                    let (v, outcome) = self
                        .results
                        .get_or_compute(key, || self.compute(&jobs[j].req));
                    let status = match outcome {
                        CacheOutcome::Hit => CacheStatus::Hit,
                        CacheOutcome::Computed => CacheStatus::Miss,
                        CacheOutcome::Joined => CacheStatus::Joined,
                    };
                    (v, status)
                }
            };
            resolved[j] = Some((result, status));
        }

        // In-batch duplicates clone their representative's value: a
        // dedup join in the single-flight sense, except nobody slept.
        for j in 0..n {
            let Some(rep) = dup_of[j] else { continue };
            let (v, rep_status) = resolved[rep]
                .clone()
                .expect("a duplicate's representative always resolves");
            let status = if rep_status == CacheStatus::Hit {
                CacheStatus::Hit
            } else {
                CacheStatus::Joined
            };
            resolved[j] = Some((v, status));
        }

        // Response pass: per-job stats, trace, and slot fill, in queue
        // order. Each traced job gets its own scope anchored at its
        // submit instant, so waterfalls still start with the queue wait.
        let batch_size = u64::try_from(n).unwrap_or(u64::MAX);
        for (j, job) in jobs.into_iter().enumerate() {
            let Job {
                req: _,
                submitted,
                slot,
                trace,
                depth_at_submit,
                depth_at_dequeue,
            } = job;
            let queue_wait_ns =
                u64::try_from(now.duration_since(submitted).as_nanos()).unwrap_or(u64::MAX);
            let scope = self
                .config
                .trace
                .then(|| mp_obs::TraceScope::begin(trace, submitted));
            if scope.is_some() {
                mp_obs::trace_stage("serve.queue_wait", 0, queue_wait_ns);
                mp_obs::trace_annotate("serve.queue_depth_at_submit", u64::from(depth_at_submit));
                mp_obs::trace_annotate("serve.queue_depth_at_dequeue", u64::from(depth_at_dequeue));
                mp_obs::trace_annotate("serve.batch_size", batch_size);
            }
            match errors[j] {
                Some(ServeError::DeadlineExceeded) => {
                    self.stats.deadline_miss();
                    if let Some(finished) = scope.and_then(mp_obs::TraceScope::finish) {
                        self.sink.push(finished.clone());
                        self.recorder.offer(
                            finished,
                            queue_wait_ns / 1_000,
                            mp_obs::FlightReason::DeadlineMissed,
                        );
                    }
                    slot.fill(Err(ServeError::DeadlineExceeded));
                }
                Some(ServeError::Shed) => {
                    self.shed_job(scope, queue_wait_ns, &slot);
                }
                Some(err) => slot.fill(Err(err)),
                None => {
                    let (result, status) = resolved[j].take().expect("every admitted job resolves");
                    if scope.is_some() {
                        let status_name = match status {
                            CacheStatus::Hit => "serve.cache_hit",
                            CacheStatus::Miss => "serve.cache_miss",
                            CacheStatus::Joined => "serve.dedup_join",
                            CacheStatus::Bypass => "serve.cache_bypass",
                        };
                        mp_obs::trace_annotate(status_name, 1);
                    }
                    let latency_us =
                        u64::try_from(submitted.elapsed().as_micros()).unwrap_or(u64::MAX);
                    self.stats.complete(status, latency_us);
                    if let Some(finished) = scope.and_then(mp_obs::TraceScope::finish) {
                        self.sink.push(finished.clone());
                        self.recorder
                            .offer(finished, latency_us, mp_obs::FlightReason::Slow);
                    }
                    slot.fill(Ok(ServeResponse {
                        result,
                        cache: status,
                        latency_us,
                    }));
                }
            }
        }
    }
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
    }
}
