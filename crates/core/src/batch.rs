//! Lock-step batched metasearch: many adaptive-probing sessions advance
//! in rounds, and probes that land on the same database in one round
//! are issued through the database's batched search entry point
//! ([`mp_hidden::HiddenWebDatabase::search_batch`]) — one postings
//! traversal per shared list in `mp-index`'s batched kernel. The final
//! result dispatch is grouped the same way.
//!
//! **Exactness.** Each session's probe sequence is a pure function of
//! its own RD state, policy, and the probe answers it receives, and
//! `search_batch` answers each query exactly as `search` would answer
//! it alone — so interleaving sessions cannot change any session's
//! `(database, actual)` sequence. Every request's outcome, probe trace,
//! fused hits, and probe accounting are bit-identical to running
//! [`crate::Metasearcher::search_with_rds`] per request in isolation
//! (`tests/batch_equivalence.rs` pins this at shard counts 1, 2, 3
//! and 8). Grouping is fully deterministic: demands are dispatched
//! in ascending `(database, request)` order, never hash order.
//!
//! Databases whose answers depend on *global* probe order (failure
//! injection keyed off shared counters) see a different interleaving
//! than sequential per-request execution would produce; batched
//! serving, like concurrent serving, is only transparent over
//! databases whose answers are functions of `(database, query)`.

use crate::expected::RdState;
use crate::fusion::fuse;
use crate::metasearcher::MetasearchResult;
use crate::probing::{AproConfig, AproOutcome, AproSession, ProbePolicy};
use crate::relevancy::RelevancyDef;
use mp_hidden::{Mediator, SearchResponse};
use mp_stats::Discrete;
use mp_text::TermId;
use mp_workload::Query;

/// One request in a batched metasearch — the per-request inputs of
/// [`crate::Metasearcher::search_with_rds`].
pub struct BatchQuery<'a> {
    /// The analyzed query.
    pub query: &'a Query,
    /// Its relevancy distributions (what `rds(query)` returns).
    pub rds: Vec<Discrete>,
    /// Per-request `APro` parameters.
    pub config: AproConfig,
    /// A fresh probe-policy instance for this request.
    pub policy: Box<dyn ProbePolicy>,
}

/// Runs the lock-step executor over `items`, probing and dispatching
/// through `mediator`.
pub(crate) fn search_batch_impl(
    mediator: &Mediator,
    def: RelevancyDef,
    probe_top_n: usize,
    fuse_limit: usize,
    items: Vec<BatchQuery<'_>>,
) -> Vec<MetasearchResult> {
    let _span = mp_obs::span!("apro.batch");
    mp_obs::counter!("core.batch_searches").incr();
    mp_obs::counter!("core.batched_requests").add(u64::try_from(items.len()).unwrap_or(0));
    let mut states: Vec<RdState> = Vec::with_capacity(items.len());
    let mut policies: Vec<Box<dyn ProbePolicy>> = Vec::with_capacity(items.len());
    let mut queries: Vec<&Query> = Vec::with_capacity(items.len());
    let mut configs: Vec<AproConfig> = Vec::with_capacity(items.len());
    for it in items {
        states.push(RdState::new(it.rds));
        policies.push(it.policy);
        queries.push(it.query);
        configs.push(it.config);
    }
    let mut sessions: Vec<AproSession<'_>> = states
        .iter_mut()
        .zip(policies.iter_mut())
        .zip(configs.iter())
        .map(|((state, policy), &config)| AproSession::begin(state, policy.as_mut(), config))
        .collect();

    // Probe rounds: collect one demand per live session, group demands
    // by database, and answer each database's group in one batched
    // search (a lone demand keeps the plain per-query probe).
    loop {
        let mut demands: Vec<(usize, usize)> = Vec::new(); // (db, request)
        for (i, session) in sessions.iter_mut().enumerate() {
            if let Some(db) = session.next_probe() {
                demands.push((db, i));
            }
        }
        if demands.is_empty() {
            break;
        }
        demands.sort_unstable();
        let mut s = 0;
        while s < demands.len() {
            let db = demands[s].0;
            let mut e = s;
            while e < demands.len() && demands[e].0 == db {
                e += 1;
            }
            if e - s == 1 {
                let i = demands[s].1;
                let actual = def.probe(mediator.db(db), queries[i], probe_top_n);
                sessions[i].apply(db, actual);
            } else {
                let shared: Vec<&[TermId]> = demands[s..e]
                    .iter()
                    .map(|&(_, i)| queries[i].terms())
                    .collect();
                let actuals = def.probe_batch(mediator.db(db), &shared, probe_top_n);
                for (&(_, i), actual) in demands[s..e].iter().zip(actuals) {
                    sessions[i].apply(db, actual);
                }
            }
            s = e;
        }
    }
    let outcomes: Vec<AproOutcome> = sessions.into_iter().map(AproSession::finish).collect();

    // Final dispatch: the selected databases answer the full queries.
    // Again grouped per database so several requests selecting the same
    // database share one batched search.
    let top_n = probe_top_n.max(fuse_limit);
    let mut dispatch: Vec<(usize, usize, usize)> = Vec::new(); // (db, request, position)
    for (i, out) in outcomes.iter().enumerate() {
        for (pos, &db) in out.selected.iter().enumerate() {
            dispatch.push((db, i, pos));
        }
    }
    dispatch.sort_unstable();
    let mut responses: Vec<Vec<Option<(usize, SearchResponse)>>> = outcomes
        .iter()
        .map(|o| vec![None; o.selected.len()])
        .collect();
    let mut s = 0;
    while s < dispatch.len() {
        let db = dispatch[s].0;
        let mut e = s;
        while e < dispatch.len() && dispatch[e].0 == db {
            e += 1;
        }
        if e - s == 1 {
            let (_, i, pos) = dispatch[s];
            responses[i][pos] = Some((db, mediator.db(db).search(queries[i].terms(), top_n)));
        } else {
            let shared: Vec<&[TermId]> = dispatch[s..e]
                .iter()
                .map(|&(_, i, _)| queries[i].terms())
                .collect();
            let answers = mediator.db(db).search_batch(&shared, top_n);
            for (&(_, i, pos), answer) in dispatch[s..e].iter().zip(answers) {
                responses[i][pos] = Some((db, answer));
            }
        }
        s = e;
    }
    outcomes
        .into_iter()
        .zip(responses)
        .map(|(outcome, resp)| {
            let resp: Vec<(usize, SearchResponse)> = resp
                .into_iter()
                .map(|r| r.expect("every selected database was dispatched"))
                .collect();
            let hits = fuse(&resp, fuse_limit);
            MetasearchResult {
                probes_used: outcome.n_probes(),
                outcome,
                hits,
            }
        })
        .collect()
}
