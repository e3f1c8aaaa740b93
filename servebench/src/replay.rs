//! The traced replay: one request re-answered sequentially through the
//! public calls of each layer, with a span around every call.
//!
//! The call sequence is the one `Metasearcher::search` performs:
//! estimates → RD derivation → `APro` session (begin, then
//! next-probe / probe / apply until done, then finish) → the final
//! search of each selected database → fusion. The assembled result is
//! compared with `==` against the served one, so the spans time exactly
//! the work that produced the answer.

use mp_core::expected::RdState;
use mp_core::fusion::fuse;
use mp_core::probing::{AproConfig, AproSession};
use mp_core::rd::derive_all_rds;
use mp_core::{MetasearchResult, Metasearcher};
use mp_serve::ServeRequest;

use crate::spans::SpanLog;

/// The root span's layer: its self time is the request's unattributed time.
pub const ROOT: &str = "request";

/// Replays `req` against `ms` as request `id`, recording spans into `log`.
pub fn replay(
    ms: &Metasearcher,
    req: &ServeRequest,
    fuse_limit: usize,
    id: u32,
    log: &mut SpanLog,
) -> MetasearchResult {
    let root = log.open(id, ROOT, "replay");
    let query = &req.query;
    let mediator = ms.mediator();
    let def = ms.relevancy_def();
    let probe_top_n = ms.library().config().probe_top_n;

    let span = log.open(id, "core.rd", "Metasearcher::estimates");
    let estimates = ms.estimates(query);
    log.close(span);
    let span = log.open(id, "core.rd", "rd::derive_all_rds");
    let rds = derive_all_rds(&estimates, query, ms.library());
    log.close(span);

    let mut state = RdState::new(rds);
    let mut policy = req.policy.build();
    let config = AproConfig {
        k: req.k,
        threshold: req.threshold,
        metric: req.metric,
        max_probes: req.max_probes,
    };
    let span = log.open(id, "core.selection", "AproSession::begin");
    let mut session = AproSession::begin(&mut state, policy.as_mut(), config);
    log.close(span);
    loop {
        let span = log.open(id, "core.policy", "AproSession::next_probe");
        let next = session.next_probe();
        log.close(span);
        let Some(db) = next else { break };
        let span = log.open(id, "hidden.probe", "RelevancyDef::probe");
        let actual = def.probe(mediator.db(db), query, probe_top_n);
        log.close(span);
        let span = log.open(id, "core.selection", "AproSession::apply");
        session.apply(db, actual);
        log.close(span);
    }
    let outcome = session.finish();

    let top_n = probe_top_n.max(fuse_limit);
    let responses: Vec<_> = outcome
        .selected
        .iter()
        .map(|&i| {
            let span = log.open(id, "hidden.search", "HiddenWebDatabase::search");
            let response = mediator.db(i).search(query.terms(), top_n);
            log.close_with(span, u64::from(response.match_count));
            (i, response)
        })
        .collect();
    let span = log.open(id, "core.fusion", "fusion::fuse");
    let hits = fuse(&responses, fuse_limit);
    log.close(span);
    log.close(root);
    MetasearchResult {
        probes_used: outcome.n_probes(),
        outcome,
        hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use mp_eval::{Testbed, TestbedConfig};

    /// Every workload's request shape replays to exactly what the
    /// sequential facade answers, on a small testbed.
    #[test]
    fn replay_equals_sequential_search_for_every_workload_shape() {
        let tb = Testbed::build(TestbedConfig::tiny(5));
        let ms = crate::workload::facade(&tb);
        let fuse_limit = 10;
        for w in &WORKLOADS {
            let mut log = SpanLog::new();
            let mut probes = 0;
            for (i, q) in tb.split.test.queries().iter().take(40).enumerate() {
                let req = w.request(q.clone());
                let mut policy = req.policy.build();
                let config = AproConfig {
                    k: req.k,
                    threshold: req.threshold,
                    metric: req.metric,
                    max_probes: req.max_probes,
                };
                let expected = ms.search(q, config, policy.as_mut(), fuse_limit);
                let got = replay(&ms, &req, fuse_limit, i as u32, &mut log);
                assert_eq!(got, expected, "{} query {i}", w.name);
                if let Some(max) = req.max_probes {
                    assert!(got.probes_used <= max);
                }
                probes += got.probes_used;
            }
            if w.threshold == 0.0 {
                assert_eq!(probes, 0, "{}: t = 0 never probes", w.name);
            } else {
                assert!(probes > 0, "{}: the shape must exercise probing", w.name);
            }
            let roots = log.spans().iter().filter(|s| s.layer == ROOT).count();
            assert_eq!(roots, 40);
            assert!(log.spans().iter().all(|s| s.end_ns >= s.start_ns));
        }
    }
}
