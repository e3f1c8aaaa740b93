//! The load driver: one thread submitting to a running
//! [`mp_serve::Server`] session, in two shapes.
//!
//! * [`flood`] — back-pressured: submit as fast as [`Client::submit`]
//!   accepts, so the bounded queue decides how much is outstanding.
//! * [`open_loop`] — seeded due instants at a fixed offered rate. The
//!   driver sleeps to each due instant (no spinning) and times each
//!   request from that instant: lateness plus the server-measured
//!   [`ServeResponse::latency_us`].
//!
//! Tickets are collected lazily, oldest first, so the driver never
//! blocks on a response while a later request is due. Every collected
//! response is scored by the [`Collector`].

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use mp_core::correctness::partial_correctness;
use mp_core::MetasearchResult;
use mp_serve::{CacheStatus, Client, ServeError, ServeResponse, Ticket};
use mp_workload::Query;

use crate::rng::SplitMix;
use crate::spans::SpanLog;
use crate::workload::{QueryStream, Workload};

/// Outstanding tickets past which an open-loop driver collects the
/// oldest one even if it is young.
const MAX_OUTSTANDING: usize = 4096;

/// Age past which an open-loop driver collects the oldest ticket.
const COLLECT_AGE: Duration = Duration::from_millis(500);

/// What the driver keeps of one request.
#[derive(Debug, Clone)]
pub struct Record {
    /// Pool index of the request's query.
    pub query: usize,
    /// When `submit` was called, ns from the phase start.
    pub submitted_ns: u64,
    /// How late the call was against its due instant, ns (0 in a flood).
    pub late_ns: u64,
    /// How long the `submit` call itself took, ns.
    pub submit_ns: u64,
    /// The response's summary, or the typed error.
    pub outcome: Result<Answer, ServeError>,
}

/// The parts of a response the metrics need.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Server-measured submit-to-completion latency.
    pub latency_us: u64,
    /// How the server obtained the result.
    pub cache: CacheStatus,
}

impl Record {
    /// Due-to-response latency in ms; `+inf` for a failed request.
    pub fn latency_ms(&self) -> f64 {
        match &self.outcome {
            Ok(a) => self.late_ns as f64 / 1e6 + a.latency_us as f64 / 1e3,
            Err(_) => f64::INFINITY,
        }
    }

    /// Completion instant, ns from the phase start.
    pub fn completed_ns(&self) -> Option<u64> {
        self.outcome
            .as_ref()
            .ok()
            .map(|a| self.submitted_ns + a.latency_us * 1_000)
    }
}

/// One timed phase's requests, in submission order.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every request the phase sent.
    pub records: Vec<Record>,
    /// Full results kept for replay, by record index (traced phases).
    pub kept: Vec<(usize, MetasearchResult)>,
}

impl Phase {
    /// The phases' records one after another (kept results dropped).
    pub fn concat(phases: Vec<Phase>) -> Phase {
        Phase {
            records: phases.into_iter().flat_map(|p| p.records).collect(),
            kept: Vec::new(),
        }
    }

    /// Requests answered with a result.
    pub fn succeeded(&self) -> usize {
        self.records.iter().filter(|r| r.outcome.is_ok()).count()
    }

    /// Requests answered with a typed error.
    pub fn failed(&self) -> usize {
        self.records.len() - self.succeeded()
    }

    /// Time from the phase start to its last completion, ns.
    pub fn busy_ns(&self) -> u64 {
        self.records
            .iter()
            .filter_map(Record::completed_ns)
            .max()
            .unwrap_or(0)
    }
}

/// Completions per second over several phases: all their completions
/// over the sum of their start-to-last-completion times.
pub fn completion_rate(phases: &[Phase]) -> f64 {
    let done: usize = phases.iter().map(Phase::succeeded).sum();
    let busy_ns: u64 = phases.iter().map(Phase::busy_ns).sum();
    if busy_ns == 0 {
        return 0.0;
    }
    done as f64 / (busy_ns as f64 / 1e9)
}

/// Scores every collected response against the golden standard and
/// keeps a seeded reservoir sample of results for the sequential check.
#[derive(Debug)]
pub struct Collector<'g> {
    golden_topk: &'g [Vec<usize>],
    /// Responses scored.
    pub answered: u64,
    /// Sum of partial correctness over scored responses.
    pub cor_sum: f64,
    /// Sum of hidden-database searches (probes + final dispatch).
    pub searches_sum: u64,
    /// Sum of probes.
    pub probes_sum: u64,
    sample_cap: usize,
    seen: u64,
    rng: SplitMix,
    /// The reservoir: `(pool index, served result)`.
    pub sample: Vec<(usize, MetasearchResult)>,
}

impl<'g> Collector<'g> {
    /// A collector scoring against `golden_topk` (top-k per pool query),
    /// sampling up to `sample_cap` results with a `seed`-ed reservoir.
    pub fn new(golden_topk: &'g [Vec<usize>], sample_cap: usize, seed: u64) -> Self {
        Self {
            golden_topk,
            answered: 0,
            cor_sum: 0.0,
            searches_sum: 0,
            probes_sum: 0,
            sample_cap,
            seen: 0,
            rng: SplitMix::new(seed ^ 0x00C4_EC4E),
            sample: Vec::new(),
        }
    }

    fn observe(&mut self, query: usize, result: &MetasearchResult) {
        self.answered += 1;
        self.cor_sum += partial_correctness(&result.outcome.selected, &self.golden_topk[query]);
        let searches = result.probes_used + result.outcome.selected.len();
        self.searches_sum += searches as u64;
        self.probes_sum += result.probes_used as u64;
        self.seen += 1;
        if self.sample.len() < self.sample_cap {
            self.sample.push((query, result.clone()));
        } else {
            let j = self
                .rng
                .below(usize::try_from(self.seen).unwrap_or(usize::MAX));
            if j < self.sample_cap {
                self.sample[j] = (query, result.clone());
            }
        }
    }
}

/// The driver's state for one phase.
struct Driver<'c, 's, 'g> {
    client: &'c Client<'s>,
    workload: &'c Workload,
    pool: &'c [Query],
    start: Instant,
    phase: Phase,
    outstanding: VecDeque<(usize, Ticket)>,
    collector: Option<&'c mut Collector<'g>>,
    keep_computed: bool,
}

impl Driver<'_, '_, '_> {
    /// Submits one request; `due` is its open-loop due instant.
    fn submit(&mut self, query: usize, due: Option<Instant>, spans: Option<&mut SpanLog>) {
        let id = self.phase.records.len();
        let req = self.workload.request(self.pool[query].clone());
        let span = spans.filter(|_| is_traced(id)).map(|log| {
            let open = log.open(span_id(id), "serve", "Client::submit");
            (log, open)
        });
        let called = Instant::now();
        let ticket = self.client.submit(req);
        let submit_ns = nanos(called.elapsed());
        let late_ns = due.map_or(0, |due| nanos(called.saturating_duration_since(due)));
        if let Some((log, open)) = span {
            log.close(open);
        }
        self.phase.records.push(Record {
            query,
            submitted_ns: nanos(called - self.start),
            late_ns,
            submit_ns,
            outcome: Err(ServeError::Closed),
        });
        match ticket {
            Ok(ticket) => self.outstanding.push_back((id, ticket)),
            Err(e) => self.phase.records[id].outcome = Err(e),
        }
    }

    /// Waits for the oldest outstanding ticket and scores its response.
    fn collect_oldest(&mut self, spans: Option<&mut SpanLog>) {
        let Some((id, ticket)) = self.outstanding.pop_front() else {
            return;
        };
        let span = spans.filter(|_| is_traced(id)).map(|log| {
            let open = log.open(span_id(id), "serve", "Ticket::wait");
            (log, open)
        });
        let response = ticket.wait();
        if let Some((log, open)) = span {
            log.close(open);
        }
        self.finish(id, response);
    }

    fn finish(&mut self, id: usize, response: Result<ServeResponse, ServeError>) {
        let query = self.phase.records[id].query;
        let outcome = response.map(|resp| {
            if let Some(c) = self.collector.as_deref_mut() {
                c.observe(query, &resp.result);
            }
            let answer = Answer {
                latency_us: resp.latency_us,
                cache: resp.cache,
            };
            if self.keep_computed && resp.cache != CacheStatus::Hit {
                self.phase.kept.push((id, resp.result));
            }
            answer
        });
        self.phase.records[id].outcome = outcome;
    }

    fn drain(mut self, mut spans: Option<&mut SpanLog>) -> Phase {
        while !self.outstanding.is_empty() {
            self.collect_oldest(spans.as_deref_mut());
        }
        self.phase
    }
}

/// Whether request `id` of a traced open-loop phase is spanned: every
/// other request, so that traced and untraced requests share one phase
/// and their latency gap is the tracing overhead.
pub fn is_traced(id: usize) -> bool {
    id.is_multiple_of(2)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn span_id(id: usize) -> u32 {
    u32::try_from(id).unwrap_or(u32::MAX)
}

/// Back-pressured flood for `duration`: submits as fast as the queue
/// accepts, keeping at most `window` tickets outstanding.
pub fn flood<'g>(
    client: &Client<'_>,
    workload: &Workload,
    pool: &[Query],
    stream: &mut QueryStream,
    duration: Duration,
    window: usize,
    collector: Option<&mut Collector<'g>>,
) -> Phase {
    let mut d = Driver {
        client,
        workload,
        pool,
        start: Instant::now(),
        phase: Phase::default(),
        outstanding: VecDeque::new(),
        collector,
        keep_computed: false,
    };
    while d.start.elapsed() < duration {
        d.submit(stream.next_index(), None, None);
        while d.outstanding.len() > window {
            d.collect_oldest(None);
        }
    }
    d.drain(None)
}

/// Open-loop phase over the due instants `due_ns` (ns from the phase
/// start). With `spans` (a traced phase), `Client::submit` and
/// `Ticket::wait` are spanned for every request [`is_traced`] selects,
/// and every non-hit result is kept for replay.
pub fn open_loop<'g>(
    client: &Client<'_>,
    workload: &Workload,
    pool: &[Query],
    stream: &mut QueryStream,
    due_ns: &[u64],
    collector: Option<&mut Collector<'g>>,
    mut spans: Option<&mut SpanLog>,
) -> Phase {
    let keep_computed = spans.is_some();
    let mut d = Driver {
        client,
        workload,
        pool,
        start: Instant::now(),
        phase: Phase::default(),
        outstanding: VecDeque::new(),
        collector,
        keep_computed,
    };
    for &due in due_ns {
        let due_at = d.start + Duration::from_nanos(due);
        let now = Instant::now();
        if due_at > now {
            std::thread::sleep(due_at - now);
        }
        d.submit(stream.next_index(), Some(due_at), spans.as_deref_mut());
        while let Some(&(id, _)) = d.outstanding.front() {
            let age = d
                .start
                .elapsed()
                .saturating_sub(Duration::from_nanos(d.phase.records[id].submitted_ns));
            if age < COLLECT_AGE && d.outstanding.len() <= MAX_OUTSTANDING {
                break;
            }
            d.collect_oldest(spans.as_deref_mut());
        }
    }
    d.drain(spans)
}
