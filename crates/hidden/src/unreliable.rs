//! Failure injection: a wrapper simulating real Hidden-Web interface
//! misbehaviour.
//!
//! Real search sites time out, return cached/stale counts, or round
//! their "about N results" figures. The paper's model treats probe
//! results as exact; [`UnreliableDb`] lets tests and experiments
//! measure how gracefully the pipeline degrades when they are not:
//!
//! * **outage** — with probability `failure_rate` a search returns an
//!   empty answer page (match count 0, no documents), as a timed-out
//!   or rate-limited request effectively does;
//! * **stale counts** — with probability `noise_rate` the match count
//!   is perturbed by a relative factor up to ±`noise_span` (cached or
//!   approximate counters).
//!
//! A mediator talking to a flaky site retries outages; the wrapper
//! models that too ([`UnreliableDb::with_retries`]) and accounts for
//! every attempt in a local [`ProbeBudget`] plus the mp-obs counters
//! `probe.outages` / `probe.retries` / `probe.failures`, so a run's
//! probe spend stays observable and provably bounded
//! (≤ `1 + max_retries` physical probes per logical search).
//!
//! # Schedule-independent injection
//!
//! Injection randomness is **counter-keyed, not sequential**: every
//! draw comes from a splitmix64 stream keyed by `(wrapper seed, query
//! fingerprint, attempt index, draw counter)`. There is no shared RNG
//! state and therefore no lock — a probe's outcome is a pure function
//! of the database and the probe itself, never of which thread issued
//! it first. The earlier design (`Mutex<StdRng>` consumed in call
//! order) was both a serialization point on the concurrent serving
//! path and a correctness bug: under multiple workers, thread
//! interleaving decided which query absorbed which outage, so served
//! results could diverge from a sequential replay. With per-probe
//! keying, results and [`ProbeBudget`] accounting are bit-identical at
//! any worker count, which the serve-layer failure-injection
//! twin-replay test pins at {1, 2, 4, 8} workers.
//!
//! Consequently a given `(database, query)` pair misbehaves the *same
//! way every time* — like a deterministic stale cache in front of a
//! flaky site. Experiments that want variation across probes vary the
//! query (or the seed), not the call count.

use crate::db::{HiddenWebDatabase, SearchResponse};
use mp_index::{DocId, Document};
use mp_text::TermId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Point-in-time probe-budget accounting for one [`UnreliableDb`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeBudget {
    /// Physical search attempts issued to the wrapped database
    /// (first tries and retries alike).
    pub attempts: u64,
    /// Attempts that were retries of an earlier outage.
    pub retries: u64,
    /// Logical searches that exhausted their retries and returned an
    /// empty answer page.
    pub failures: u64,
    /// Individual attempts lost to injected outages.
    pub outages: u64,
}

#[derive(Debug, Default)]
struct BudgetStats {
    attempts: AtomicU64,
    retries: AtomicU64,
    failures: AtomicU64,
    outages: AtomicU64,
}

/// splitmix64 finalizer: a full-avalanche bijection on `u64`.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Weyl-sequence increment (splitmix64's golden-ratio gamma).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Stable FNV-1a fingerprint of a query's term sequence — the
/// query-identity half of the injection key.
fn query_key(query: &[TermId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in query {
        for b in t.0.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One probe's private random stream: keyed by `(seed, query, attempt)`
/// and advanced by a local draw counter. Lock-free and schedule
/// independent — two threads probing concurrently derive disjoint,
/// deterministic streams.
struct ProbeStream {
    state: u64,
}

impl ProbeStream {
    fn new(seed: u64, qkey: u64, attempt: u32) -> Self {
        // Each key component passes through the avalanche mixer before
        // combining, so structured inputs (small seeds, consecutive
        // attempt indices) cannot cancel in the XOR.
        let state = mix64(seed ^ GAMMA)
            ^ mix64(qkey.wrapping_add(GAMMA))
            ^ mix64(u64::from(attempt).wrapping_mul(GAMMA));
        Self { state }
    }

    /// Next value uniform in `[0, 1)` (53-bit mantissa resolution).
    fn next_f64(&mut self) -> f64 {
        self.state = self.state.wrapping_add(GAMMA);
        let bits = mix64(self.state) >> 11;
        // `bits` has at most 53 significant bits after the shift, so
        // both u64 -> f64 conversions are exact (the cast lints allow
        // int -> f64).
        bits as f64 / (1u64 << 53) as f64
    }
}

/// A failure-injecting decorator around any [`HiddenWebDatabase`].
pub struct UnreliableDb {
    inner: Arc<dyn HiddenWebDatabase>,
    failure_rate: f64,
    noise_rate: f64,
    noise_span: f64,
    /// Extra attempts after a first outage; 0 = fail immediately.
    max_retries: u32,
    stats: BudgetStats,
    /// Keys the per-probe injection streams; never mutated after
    /// construction (the wrapper holds no shared RNG state).
    seed: u64,
}

impl std::fmt::Debug for UnreliableDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnreliableDb")
            .field("inner", &self.inner.name())
            .field("failure_rate", &self.failure_rate)
            .field("noise_rate", &self.noise_rate)
            .field("noise_span", &self.noise_span)
            .field("max_retries", &self.max_retries)
            .field("seed", &self.seed)
            .finish()
    }
}

impl UnreliableDb {
    /// Wraps `inner` with the given misbehaviour rates.
    ///
    /// # Panics
    /// Panics unless `failure_rate`, `noise_rate` ∈ [0, 1] and
    /// `noise_span` ∈ [0, 1).
    pub fn new(
        inner: Arc<dyn HiddenWebDatabase>,
        failure_rate: f64,
        noise_rate: f64,
        noise_span: f64,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&failure_rate),
            "failure_rate out of range"
        );
        assert!((0.0..=1.0).contains(&noise_rate), "noise_rate out of range");
        assert!((0.0..1.0).contains(&noise_span), "noise_span out of range");
        Self {
            inner,
            failure_rate,
            noise_rate,
            noise_span,
            max_retries: 0,
            stats: BudgetStats::default(),
            seed,
        }
    }

    /// A perfectly reliable wrapper (pass-through; for A/B fixtures).
    pub fn reliable(inner: Arc<dyn HiddenWebDatabase>) -> Self {
        Self::new(inner, 0.0, 0.0, 0.0, 0)
    }

    /// Retries outages up to `max_retries` extra times before giving a
    /// logical search up. Each retry is a real (counted) probe, so one
    /// logical search costs at most `1 + max_retries` physical probes.
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// The configured retry ceiling.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Snapshot of this wrapper's probe-budget accounting.
    pub fn budget(&self) -> ProbeBudget {
        ProbeBudget {
            attempts: self.stats.attempts.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            failures: self.stats.failures.load(Ordering::Relaxed),
            outages: self.stats.outages.load(Ordering::Relaxed),
        }
    }
}

impl HiddenWebDatabase for UnreliableDb {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn search(&self, query: &[TermId], top_n: usize) -> SearchResponse {
        let _span = mp_obs::span!("hidden.unreliable_search");
        let qkey = query_key(query);
        let mut attempt = 0u32;
        loop {
            self.stats.attempts.fetch_add(1, Ordering::Relaxed);
            let mut stream = ProbeStream::new(self.seed, qkey, attempt);
            let fail = stream.next_f64() < self.failure_rate;
            let noise_factor = if stream.next_f64() < self.noise_rate {
                1.0 + (stream.next_f64() * 2.0 - 1.0) * self.noise_span
            } else {
                1.0
            };
            if fail {
                self.stats.outages.fetch_add(1, Ordering::Relaxed);
                mp_obs::counter!("probe.outages").incr();
                mp_obs::trace_annotate("probe.outage", 1);
                // Outage: the probe still *happened* (and cost time), so
                // it is counted by the inner probe counter via a real
                // call with no results requested.
                let _ = self.inner.search(query, 0);
                if attempt < self.max_retries {
                    attempt += 1;
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    mp_obs::counter!("probe.retries").incr();
                    mp_obs::trace_annotate("probe.retry", u64::from(attempt));
                    continue;
                }
                self.stats.failures.fetch_add(1, Ordering::Relaxed);
                mp_obs::counter!("probe.failures").incr();
                mp_obs::trace_annotate("probe.failed", 1);
                return SearchResponse {
                    match_count: 0,
                    top_docs: Vec::new(),
                };
            }
            let mut resp = self.inner.search(query, top_n);
            // `exact_one` (not an epsilon test): the no-noise branch
            // above sets the factor to the literal 1.0, so only that
            // sentinel means "leave the count untouched".
            if !mp_stats::float::exact_one(noise_factor) {
                let noised = f64::from(resp.match_count) * noise_factor;
                // Saturate on the (unreachable in practice) overflow
                // rather than wrapping: a stale counter can only
                // exaggerate so far.
                resp.match_count = mp_stats::float::round_u32(noised.max(0.0)).unwrap_or(u32::MAX);
            }
            return resp;
        }
    }

    fn fetch(&self, doc: DocId) -> Document {
        self.inner.fetch(doc)
    }

    fn size_hint(&self) -> Option<u32> {
        self.inner.size_hint()
    }

    fn probe_count(&self) -> u64 {
        self.inner.probe_count()
    }

    fn reset_probes(&self) {
        self.inner.reset_probes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::SimulatedHiddenDb;
    use mp_index::{Document, IndexBuilder};

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn base_db() -> Arc<dyn HiddenWebDatabase> {
        let mut b = IndexBuilder::new();
        for _ in 0..100 {
            b.add(Document::from_terms([t(1), t(2)]));
        }
        Arc::new(SimulatedHiddenDb::new("base", b.build()))
    }

    /// A database where every term id in `0..n` matches exactly one
    /// document — so `n` *distinct* queries (distinct injection keys)
    /// each have a known clean match count of 1.
    fn wide_db(n: u32) -> Arc<dyn HiddenWebDatabase> {
        let mut b = IndexBuilder::new();
        for i in 0..n {
            b.add(Document::from_terms([t(i)]));
        }
        Arc::new(SimulatedHiddenDb::new("wide", b.build()))
    }

    #[test]
    fn reliable_wrapper_is_transparent() {
        let db = UnreliableDb::reliable(base_db());
        let r = db.search(&[t(1)], 5);
        assert_eq!(r.match_count, 100);
        assert_eq!(r.top_docs.len(), 5);
        assert_eq!(db.name(), "base");
        assert_eq!(db.size_hint(), Some(100));
    }

    #[test]
    fn outages_return_empty_pages_at_roughly_the_configured_rate() {
        // Injection is keyed by (seed, query), so the rate is observed
        // across *distinct* queries, each with a clean match count of 1.
        let n = 2000u32;
        let db = UnreliableDb::new(wide_db(n), 0.3, 0.0, 0.0, 42);
        let failures = (0..n)
            .filter(|&i| db.search(&[t(i)], 0).match_count == 0)
            .count();
        let rate = f64::from(u32::try_from(failures).unwrap()) / f64::from(n);
        assert!((rate - 0.3).abs() < 0.05, "observed outage rate {rate}");
    }

    #[test]
    fn outages_still_cost_probes() {
        // failure_rate 1.0: the outage fires regardless of the key.
        let db = UnreliableDb::new(base_db(), 1.0, 0.0, 0.0, 1);
        db.reset_probes();
        let _ = db.search(&[t(1)], 3);
        assert_eq!(db.probe_count(), 1);
    }

    #[test]
    fn noise_perturbs_counts_within_span() {
        // noise_rate 1.0 fires on every query; the factor varies with
        // the query key, so distinct single-term queries against the
        // 100-doc-per-term database sample the ±20% band.
        let per_term = 100u32;
        let terms = 50u32;
        let mut b = IndexBuilder::new();
        for i in 0..terms {
            for _ in 0..per_term {
                b.add(Document::from_terms([t(i)]));
            }
        }
        let inner: Arc<dyn HiddenWebDatabase> = Arc::new(SimulatedHiddenDb::new("many", b.build()));
        let db = UnreliableDb::new(inner, 0.0, 1.0, 0.2, 7);
        let mut saw_noise = false;
        for i in 0..terms {
            let c = db.search(&[t(i)], 0).match_count;
            assert!((80..=120).contains(&c), "count {c} outside ±20% of 100");
            if c != 100 {
                saw_noise = true;
            }
        }
        assert!(saw_noise, "noise never fired at rate 1.0");
    }

    #[test]
    fn injection_is_deterministic_in_seed_and_query() {
        let a = UnreliableDb::new(wide_db(100), 0.4, 0.5, 0.3, 9);
        let b = UnreliableDb::new(wide_db(100), 0.4, 0.5, 0.3, 9);
        for i in 0..100 {
            assert_eq!(
                a.search(&[t(i)], 0).match_count,
                b.search(&[t(i)], 0).match_count
            );
        }
    }

    #[test]
    fn injection_is_independent_of_call_order() {
        // The lock-free stream is keyed per probe, so replaying the
        // same query set in reverse (or any) order yields identical
        // per-query outcomes and an identical budget — the property the
        // old sequential `Mutex<StdRng>` violated.
        let n = 200u32;
        let forward = UnreliableDb::new(wide_db(n), 0.4, 0.5, 0.3, 13).with_retries(2);
        let backward = UnreliableDb::new(wide_db(n), 0.4, 0.5, 0.3, 13).with_retries(2);
        let fwd: Vec<u32> = (0..n)
            .map(|i| forward.search(&[t(i)], 0).match_count)
            .collect();
        let mut bwd: Vec<(u32, u32)> = (0..n)
            .rev()
            .map(|i| (i, backward.search(&[t(i)], 0).match_count))
            .collect();
        bwd.sort_unstable();
        for (i, count) in bwd {
            assert_eq!(count, fwd[usize::try_from(i).unwrap()], "query {i}");
        }
        assert_eq!(forward.budget(), backward.budget());
    }

    #[test]
    fn seeds_decorrelate_wrappers() {
        let a = UnreliableDb::new(wide_db(300), 0.5, 0.0, 0.0, 1);
        let b = UnreliableDb::new(wide_db(300), 0.5, 0.0, 0.0, 2);
        let diverged = (0..300)
            .filter(|&i| a.search(&[t(i)], 0).match_count != b.search(&[t(i)], 0).match_count)
            .count();
        assert!(
            diverged > 50,
            "seeds 1 and 2 diverged on only {diverged}/300"
        );
    }

    #[test]
    #[should_panic(expected = "failure_rate out of range")]
    fn rejects_invalid_rates() {
        UnreliableDb::new(base_db(), 1.5, 0.0, 0.0, 0);
    }

    #[test]
    fn debug_reports_every_configured_rate() {
        let db = UnreliableDb::new(base_db(), 0.25, 0.5, 0.1, 99).with_retries(3);
        let dbg = format!("{db:?}");
        for needle in [
            "failure_rate: 0.25",
            "noise_rate: 0.5",
            "noise_span: 0.1",
            "max_retries: 3",
            "seed: 99",
        ] {
            assert!(dbg.contains(needle), "{needle} missing from {dbg}");
        }
    }

    /// Regression: a flaky source's retry spend is observable (local
    /// budget and mp-obs counters) and bounded by `1 + max_retries`
    /// physical probes per logical search.
    #[test]
    fn flaky_source_retry_count_is_observable_and_bounded() {
        let db = UnreliableDb::new(base_db(), 1.0, 0.0, 0.0, 3).with_retries(3);
        assert_eq!(db.budget(), ProbeBudget::default());
        let retries_before = mp_obs::counter("probe.retries").get();

        let r = db.search(&[t(1)], 5);
        assert_eq!(r.match_count, 0, "permanent outage fails the search");

        let b = db.budget();
        assert_eq!(b.attempts, 4, "one first try plus max_retries retries");
        assert_eq!(b.retries, 3);
        assert_eq!(b.outages, 4);
        assert_eq!(b.failures, 1);
        assert_eq!(db.probe_count(), 4, "every retry cost a real probe");
        assert!(b.attempts <= u64::from(db.max_retries()) + 1);

        // The spend also surfaces through the global mp-obs counters
        // (>=: the registry is shared with other tests in this binary).
        if mp_obs::is_enabled() {
            assert!(mp_obs::counter("probe.retries").get() >= retries_before + 3);
        }
    }

    /// A partially flaky source recovers within budget: with outages at
    /// ~50% and one retry allowed, most logical searches still succeed.
    #[test]
    fn retries_recover_transient_outages() {
        let n = 500u32;
        let db = UnreliableDb::new(wide_db(n), 0.5, 0.0, 0.0, 11).with_retries(1);
        let failed = (0..n)
            .filter(|&i| db.search(&[t(i)], 0).match_count == 0)
            .count() as u64;
        let b = db.budget();
        // P(fail) = 0.25 under one retry; allow generous slack.
        assert!(
            f64::from(u32::try_from(failed).unwrap()) / f64::from(n) < 0.35,
            "failure rate {failed}/{n} too high for one retry"
        );
        assert_eq!(b.failures, failed);
        assert_eq!(b.attempts, u64::from(n) + b.retries);
        assert!(
            b.attempts <= u64::from(n) * 2,
            "bounded by 1 + max_retries per search"
        );
    }
}
