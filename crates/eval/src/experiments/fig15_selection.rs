//! Figure 15 (table) — RD-based selection vs the term-independence
//! baseline, no probing (paper Section 6.2).

use crate::report::{fmt3, TextTable};
use crate::runner::{evaluate_baseline, evaluate_rd_based, MethodScores};
use crate::testbed::Testbed;
use serde::{Deserialize, Serialize};

/// The Figure 15 table contents.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig15Result {
    /// Baseline scores at k = 1.
    pub baseline_k1: MethodScores,
    /// RD-based scores at k = 1.
    pub rd_k1: MethodScores,
    /// Baseline scores at k = 3.
    pub baseline_k3: MethodScores,
    /// RD-based scores at k = 3.
    pub rd_k3: MethodScores,
}

impl Fig15Result {
    /// Relative improvement of RD-based over the baseline on
    /// `Avg(Cor_a)` at k = 1 — the paper reports 38.2% on its testbed.
    pub fn k1_relative_improvement(&self) -> f64 {
        if mp_stats::float::exact_zero(self.baseline_k1.avg_cor_a) {
            return 0.0;
        }
        (self.rd_k1.avg_cor_a - self.baseline_k1.avg_cor_a) / self.baseline_k1.avg_cor_a
    }
}

/// Runs the comparison on a built testbed.
pub fn run_fig15(tb: &Testbed) -> Fig15Result {
    let _span = mp_obs::span!("eval.fig15");
    Fig15Result {
        baseline_k1: evaluate_baseline(tb, 1),
        rd_k1: evaluate_rd_based(tb, 1, &tb.library),
        baseline_k3: evaluate_baseline(tb, 3),
        rd_k3: evaluate_rd_based(tb, 3, &tb.library),
    }
}

/// Renders the Figure 15 table.
pub fn render_fig15(r: &Fig15Result) -> String {
    let mut table = TextTable::new(
        "Fig. 15 — RD-based database selection vs. the term-independence estimator",
        &["method", "k=1 Avg(Cor)", "k=3 Avg(Cor_a)", "k=3 Avg(Cor_p)"],
    );
    let pm = |v: f64, se: f64| format!("{} ±{:.3}", fmt3(v), se);
    table.row(&[
        "term-independence (baseline)".into(),
        pm(r.baseline_k1.avg_cor_a, r.baseline_k1.se_cor_a),
        pm(r.baseline_k3.avg_cor_a, r.baseline_k3.se_cor_a),
        pm(r.baseline_k3.avg_cor_p, r.baseline_k3.se_cor_p),
    ]);
    table.row(&[
        "RD-based, no probing".into(),
        pm(r.rd_k1.avg_cor_a, r.rd_k1.se_cor_a),
        pm(r.rd_k3.avg_cor_a, r.rd_k3.se_cor_a),
        pm(r.rd_k3.avg_cor_p, r.rd_k3.se_cor_p),
    ]);
    let mut s = table.render();
    s.push_str(&format!(
        "k=1 relative improvement: {:+.1}% (paper: +38.2% on its testbed)\n",
        r.k1_relative_improvement() * 100.0
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::TestbedConfig;

    #[test]
    fn rd_based_improves_on_baseline() {
        // The headline result must reproduce in shape: RD-based beats
        // the baseline at k = 1 and on partial correctness at k = 3.
        // The paper's claim is about the *expectation*; on one tiny
        // 5-database testbed a single seed lands within ±1 SE of the
        // baseline on either side, so the claim is asserted on scores
        // averaged over several seeds (the full-scale repro shows
        // per-run wins; see EXPERIMENTS.md).
        const SEEDS: [u64; 4] = [1, 2, 3, 4];
        let (mut base_k1, mut rd_k1, mut base_k3p, mut rd_k3p) = (0.0, 0.0, 0.0, 0.0);
        for &seed in &SEEDS {
            let r = run_fig15(&Testbed::build(TestbedConfig::tiny(seed)));
            base_k1 += r.baseline_k1.avg_cor_a;
            rd_k1 += r.rd_k1.avg_cor_a;
            base_k3p += r.baseline_k3.avg_cor_p;
            rd_k3p += r.rd_k3.avg_cor_p;
        }
        assert!(
            rd_k1 > base_k1,
            "averaged k=1: rd {rd_k1} vs baseline {base_k1}"
        );
        assert!(
            rd_k3p > base_k3p,
            "averaged k=3 partial: rd {rd_k3p} vs baseline {base_k3p}"
        );
    }

    #[test]
    fn k1_metrics_coincide() {
        let tb = Testbed::build(TestbedConfig::tiny(1));
        let r = run_fig15(&tb);
        assert!((r.baseline_k1.avg_cor_a - r.baseline_k1.avg_cor_p).abs() < 1e-12);
        assert!((r.rd_k1.avg_cor_a - r.rd_k1.avg_cor_p).abs() < 1e-12);
    }

    #[test]
    fn table_renders() {
        let tb = Testbed::build(TestbedConfig::tiny(1));
        let s = render_fig15(&run_fig15(&tb));
        assert!(s.contains("RD-based"));
        assert!(s.contains("relative improvement"));
    }
}
