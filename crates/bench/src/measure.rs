//! The one place mp-bench times and summarizes runs.
//!
//! Every bench measures the same way: one untimed warm-up run absorbs
//! first-touch effects (lazy allocations, page-ins, cold caches), then
//! each timed run gives one reading, and a [`Summary`] reads off the
//! readings' min, quartiles, median and max. Quantiles interpolate
//! linearly between closest ranks ([`quantile`]), so the median of an
//! odd run count is its middle reading. The `pairs` binary summarizes
//! servebench readings with the same [`Summary`], and a budget check
//! reads a summary's quartiles into a [`Verdict`].

use std::fmt;
use std::time::Instant;

/// Wall-clock nanoseconds of one call of `f`. The result passes
/// through [`std::hint::black_box`] and is dropped inside the reading.
#[expect(
    clippy::disallowed_methods,
    reason = "a bench times its runs with the wall clock"
)]
pub fn elapsed_ns<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_nanos() as f64
}

/// One untimed warm-up call of `reading`, then the summary of `runs`
/// more. Each call returns its own reading, as a rule from
/// [`elapsed_ns`] around the part it times, so per-run set-up such as
/// a fresh server stays out of the reading.
pub fn sampled(runs: usize, mut reading: impl FnMut() -> f64) -> Summary {
    reading();
    let readings: Vec<f64> = (0..runs).map(|_| reading()).collect();
    Summary::of(&readings)
}

/// [`sampled`] with each call of `f` timed whole.
pub fn timed<T>(runs: usize, mut f: impl FnMut() -> T) -> Summary {
    sampled(runs, || elapsed_ns(&mut f))
}

/// `runs` interleaved pairs of readings, one from `a` and one from `b`
/// (after one warm-up call of each), index-aligned by pair. The side
/// that runs first alternates, so slow drift (thermal, a shared
/// runner's load) hits both sides of a pair alike, and neither side
/// always inherits the cache and clock state the other leaves.
pub fn interleaved(
    runs: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (Vec<f64>, Vec<f64>) {
    a();
    b();
    let mut xs = Vec::with_capacity(runs);
    let mut ys = Vec::with_capacity(runs);
    for pair in 0..runs {
        if pair % 2 == 0 {
            xs.push(a());
            ys.push(b());
        } else {
            ys.push(b());
            xs.push(a());
        }
    }
    (xs, ys)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted` values, by
/// linear interpolation between closest ranks; `NaN` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor();
    let i = mp_stats::float::round_u64(lo)
        .and_then(|i| usize::try_from(i).ok())
        .unwrap_or(0)
        .min(last);
    let j = (i + 1).min(last);
    sorted[i] + (sorted[j] - sorted[i]) * (pos - lo)
}

/// Min, quartiles, median and max of a set of readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest reading.
    pub min: f64,
    /// Lower quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
    /// Largest reading.
    pub max: f64,
}

impl Summary {
    /// The summary of `values` (any order); every field is `NaN` when
    /// there are none.
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            min: quantile(&v, 0.0),
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
            max: quantile(&v, 1.0),
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// The readings against an upper `budget`: [`Verdict::Pass`] when
    /// the whole interquartile range is at or below it,
    /// [`Verdict::Fail`] when the whole range is above it, and
    /// [`Verdict::Inconclusive`] when the noise straddles it.
    pub fn against(&self, budget: f64) -> Verdict {
        if self.q3 <= budget {
            Verdict::Pass
        } else if self.q1 > budget {
            Verdict::Fail
        } else {
            Verdict::Inconclusive
        }
    }
}

/// A budget check's outcome ([`Summary::against`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The upper quartile is within the budget.
    Pass,
    /// The lower quartile is over the budget.
    Fail,
    /// The interquartile range straddles the budget.
    Inconclusive,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Inconclusive => "inconclusive",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert_eq!(s.iqr(), 2.0);
        assert!(Summary::of(&[]).median.is_nan());
    }

    /// The timed guards read medians of odd run counts (5 in
    /// `serve_throughput`, 7 in `retrieval_kernel`): there the median
    /// is the middle reading, `sorted[len / 2]`, with nothing
    /// interpolated.
    #[test]
    fn an_odd_count_has_its_middle_reading_as_median() {
        for n in [3usize, 5, 7, 15, 31] {
            let readings: Vec<f64> = (0..n).map(|i| ((i * 11) % n) as f64 * 1.5 + 0.25).collect();
            let mut sorted = readings.clone();
            sorted.sort_by(f64::total_cmp);
            let median = Summary::of(&readings).median;
            assert_eq!(median.to_bits(), sorted[n / 2].to_bits(), "{n} runs");
        }
    }

    #[test]
    fn warm_up_calls_are_not_summarized() {
        let mut calls = 0u32;
        let s = sampled(5, || {
            calls += 1;
            f64::from(calls)
        });
        assert_eq!(calls, 6);
        assert_eq!((s.min, s.median, s.max), (2.0, 4.0, 6.0));

        let mut runs = 0u32;
        let t = timed(3, || runs += 1);
        assert_eq!(runs, 4);
        assert!(t.min >= 0.0 && t.min <= t.median && t.median <= t.max);
    }

    #[test]
    fn interleaved_pairs_alternate_which_side_runs_first() {
        let order = RefCell::new(String::new());
        let (a, b) = interleaved(
            4,
            || {
                order.borrow_mut().push('a');
                1.0
            },
            || {
                order.borrow_mut().push('b');
                2.0
            },
        );
        // One warm-up call each, then a-first and b-first pairs in turn.
        assert_eq!(
            order.into_inner(),
            "ab".to_string() + "ab" + "ba" + "ab" + "ba"
        );
        assert_eq!((a, b), (vec![1.0; 4], vec![2.0; 4]));
    }

    #[test]
    fn verdicts_read_the_quartiles_against_the_budget() {
        let spread = |q1: f64, q3: f64| Summary {
            min: q1 - 1.0,
            q1,
            median: (q1 + q3) / 2.0,
            q3,
            max: q3 + 1.0,
        };
        // q3 at the budget passes; only the quartiles count, not the
        // extremes.
        assert_eq!(spread(1.0, 2.0).against(2.0), Verdict::Pass);
        // q1 above the budget fails.
        assert_eq!(spread(2.5, 3.0).against(2.0), Verdict::Fail);
        // Anything else straddles it, q1 at the budget included.
        assert_eq!(spread(2.0, 3.0).against(2.0), Verdict::Inconclusive);
        assert_eq!(spread(1.0, 2.5).against(2.0), Verdict::Inconclusive);
        let names: Vec<String> = [Verdict::Pass, Verdict::Fail, Verdict::Inconclusive]
            .iter()
            .map(Verdict::to_string)
            .collect();
        assert_eq!(names, ["pass", "fail", "inconclusive"]);
    }
}
