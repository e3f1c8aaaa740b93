//! Probing when databases cost different amounts to contact
//! (the paper's Section 5.2 extension) — and when the natural
//! gain-per-cost rule helps or hurts.
//!
//! The paper assumes unit probe costs and notes the methods extend to
//! heterogeneous costs. The obvious extension is greedy by *certainty
//! gain per unit cost* ([`CostAwareGreedyPolicy`]). This example runs
//! that policy against the cost-blind greedy under fixed per-query
//! budgets, in two tariff regimes:
//!
//! * **aligned** — the expensive databases are the big, informative
//!   ones (metered premium APIs). Paying is then simply optimal, and
//!   the ratio rule's preference for cheap low-gain probes is *myopic*:
//!   cost-blind greedy matches or beats it.
//! * **anti-aligned** — the expensive databases are slow niche sites
//!   that rarely matter. Routing around them is free, and both policies
//!   coincide (cost-aware never pays, cost-blind never wants to).
//!
//! Takeaway: per-step gain-per-cost is safe but not sufficient;
//! beating cost-blind probing in the aligned regime needs budget-level
//! lookahead (a knapsack view of the probe sequence), which the paper
//! leaves — and we leave — as future work.
//!
//! Run with:
//! ```text
//! cargo run --release --example cost_aware_probing
//! ```

use mp_core::expected::RdState;
use mp_core::probing::{
    apro_with_costs, AproConfig, CostAwareGreedyPolicy, GreedyPolicy, ProbeCosts,
};
use mp_core::CorrectnessMetric;
use mp_corpus::{ScenarioConfig, ScenarioKind};
use mp_eval::{Testbed, TestbedConfig};

fn run_regime(tb: &Testbed, costs: &ProbeCosts, label: &str) {
    let queries = tb.split.test.queries();
    println!("\n{label}");
    println!(
        "{:>8}  {:>12}  {:>12}",
        "budget", "cost-aware", "cost-blind"
    );
    for budget in [1.0f64, 2.0, 4.0, 8.0] {
        let mut correct_aware = 0.0;
        let mut correct_blind = 0.0;
        for (qi, q) in queries.iter().enumerate() {
            let golden = tb.golden.topk(qi, 1);
            let config = AproConfig {
                k: 1,
                threshold: 1.0, // spend the whole budget
                metric: CorrectnessMetric::Absolute,
                max_probes: None,
            };

            let mut state = RdState::for_query(&tb.estimates(q), q, &tb.library);
            let mut policy = CostAwareGreedyPolicy::new(costs.clone());
            let mut probe = |i: usize| tb.golden.actual(qi, i);
            let f: &mut dyn FnMut(usize) -> f64 = &mut probe;
            let (outcome, _) =
                apro_with_costs(&mut state, config, costs, Some(budget), &mut policy, f);
            correct_aware += mp_core::absolute_correctness(&outcome.selected, &golden);

            let mut state = RdState::for_query(&tb.estimates(q), q, &tb.library);
            let mut policy = GreedyPolicy;
            let mut probe = |i: usize| tb.golden.actual(qi, i);
            let f: &mut dyn FnMut(usize) -> f64 = &mut probe;
            let (outcome, _) =
                apro_with_costs(&mut state, config, costs, Some(budget), &mut policy, f);
            correct_blind += mp_core::absolute_correctness(&outcome.selected, &golden);
        }
        let nq = queries.len() as f64;
        println!(
            "{:>8.1}  {:>12.3}  {:>12.3}",
            budget,
            correct_aware / nq,
            correct_blind / nq
        );
    }
}

fn main() {
    println!("building testbed…");
    let mut cfg = TestbedConfig::paper(31);
    cfg.scenario = ScenarioConfig {
        scale: 0.25,
        n_databases: 12,
        ..ScenarioConfig::new(ScenarioKind::Health, 31)
    };
    cfg.n_two = 200;
    cfg.n_three = 120;
    let tb = Testbed::build(cfg);
    let n = tb.n_databases();

    // Regime 1 (aligned): the two largest databases are metered premium
    // APIs; news sites are fast and cheap.
    let mut aligned = vec![1.0; n];
    let mut sizes: Vec<(usize, u32)> = (0..n)
        .map(|i| (i, tb.mediator.db(i).size_hint().unwrap_or(0)))
        .collect();
    sizes.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
    for &(i, _) in sizes.iter().take(2) {
        aligned[i] = 6.0;
    }
    for (i, name) in tb.mediator.names().iter().enumerate() {
        if name.starts_with("news.") {
            aligned[i] = 0.5;
        }
    }

    // Regime 2 (anti-aligned): the three smallest niche sites are slow
    // and rate-limited instead.
    let mut anti = vec![1.0; n];
    sizes.sort_by_key(|&(_, s)| s);
    for &(i, _) in sizes.iter().take(3) {
        anti[i] = 6.0;
    }
    for (i, name) in tb.mediator.names().iter().enumerate() {
        if name.starts_with("news.") {
            anti[i] = 0.5;
        }
    }

    run_regime(
        &tb,
        &ProbeCosts::new(aligned),
        "regime 1 — expensive = informative (metered premium APIs):",
    );
    run_regime(
        &tb,
        &ProbeCosts::new(anti),
        "regime 2 — expensive = niche (slow rate-limited sites):",
    );

    println!(
        "\nreading: in regime 2 the ratio rule routes around databases nobody\n\
         needs and the policies coincide. In regime 1 the informative databases\n\
         are the priced ones — paying is optimal, and the myopic gain-per-cost\n\
         rule underspends; budget-level lookahead would be needed to beat the\n\
         cost-blind policy there."
    );
}
