//! Exact percentiles over the benchmark's own samples.
//!
//! Percentiles use the nearest-rank definition: the `q`-th percentile
//! of `n` sorted samples is the sample at 1-based rank `⌈q·n/100⌉`.
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond its rank; with fewer samples the helper steps
//! down to the highest percentile that still has that many, and the
//! caller prints which percentile it got and from how many samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// One percentile read from a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile actually reported, in percent (e.g. `99.0`).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was read from.
    pub samples: usize,
}

impl std::fmt::Display for Percentile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (p{:.2} of {} samples)",
            self.value, self.pct, self.samples
        )
    }
}

/// Sorts samples ascending (samples are finite or `+inf`, never NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// 1-based nearest rank of percentile `pct` among `n` samples. The
/// epsilon keeps a percentile computed as `100·r/n` on rank `r`.
fn rank(pct: f64, n: usize) -> usize {
    let r = (pct / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// The nearest-rank median of ascending `sorted`, `None` when empty.
pub fn median(sorted: &[f64]) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    Some(Percentile {
        pct: 50.0,
        value: sorted[rank(50.0, n) - 1],
        samples: n,
    })
}

/// The `want`-th percentile of ascending `sorted` if at least
/// [`MIN_BEYOND`] samples lie beyond its rank; otherwise the highest
/// percentile that has that many (rank `n − MIN_BEYOND`). `None` when
/// there are too few samples for any percentile to qualify.
pub fn tail(sorted: &[f64], want: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let wanted = rank(want, n);
    let (pct, r) = if n - wanted >= MIN_BEYOND {
        (want, wanted)
    } else {
        let r = n - MIN_BEYOND;
        (100.0 * r as f64 / n as f64, r)
    };
    Some(Percentile {
        pct,
        value: sorted[r - 1],
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix;

    /// Oracle: the sample at the smallest sorted position whose
    /// cumulative share reaches `pct`, found by scanning.
    fn nearest(sorted: &[f64], pct: f64) -> usize {
        let n = sorted.len();
        (0..n)
            .find(|&i| (i + 1) as f64 * 100.0 >= pct * n as f64 - 1e-9)
            .expect("pct ≤ 100 always reaches some position")
    }

    /// Oracle for the tail: step down from `want` in 0.01 steps until
    /// the selected position has at least ten positions after it.
    fn tail_oracle(samples: &[f64], want: f64) -> Option<(f64, f64)> {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let mut step = (want * 100.0).round() as i64;
        while step > 0 {
            let pct = step as f64 / 100.0;
            let pos = nearest(&s, pct);
            if (pos + 1..s.len()).count() >= MIN_BEYOND {
                return Some((pct, s[pos]));
            }
            step -= 1;
        }
        None
    }

    #[test]
    fn median_and_p99_match_the_oracle() {
        let mut rng = SplitMix::new(7);
        for n in [
            11usize, 12, 50, 99, 100, 999, 1000, 1001, 1009, 1010, 1011, 4321,
        ] {
            let samples: Vec<f64> = (0..n).map(|_| (rng.next_u64() % 500) as f64).collect();
            let s = sorted(samples.clone());
            let m = median(&s).unwrap();
            assert_eq!(m.value, s[nearest(&s, 50.0)], "median n={n}");
            let p = tail(&s, 99.0).unwrap();
            let (_, oracle_value) = tail_oracle(&samples, 99.0).unwrap();
            assert_eq!(p.value, oracle_value, "tail value n={n}");
            assert_eq!(p.samples, n);
            // The ten-beyond rule: the reported rank leaves ≥ 10 above.
            let r = rank(p.pct, n);
            assert!(n - r >= MIN_BEYOND, "n={n} pct={}", p.pct);
            if n >= 1000 {
                assert_eq!(p.pct, 99.0, "p99 qualifies from 1000 samples on");
            } else {
                assert!(p.pct < 99.0, "n={n} must step down from p99");
                assert_eq!(r, n - MIN_BEYOND, "highest qualifying rank");
            }
        }
    }

    #[test]
    fn exact_boundaries_of_the_ten_beyond_rule() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        // ⌈0.99·1000⌉ = 990, leaving exactly 10 beyond.
        assert_eq!(tail(&s, 99.0).unwrap().value, 990.0);
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        // ⌈0.99·999⌉ = 990 would leave 9: step down to rank 989.
        let p = tail(&s, 99.0).unwrap();
        assert_eq!(p.value, 989.0);
        assert!((p.pct - 100.0 * 989.0 / 999.0).abs() < 1e-12);
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&s, 99.0), None, "ten samples leave none to report");
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn infinite_samples_sort_last() {
        let mut v: Vec<f64> = (0..20).map(f64::from).collect();
        v.push(f64::INFINITY);
        let s = sorted(v);
        assert_eq!(*s.last().unwrap(), f64::INFINITY);
        assert_eq!(median(&s).unwrap().value, 10.0);
    }
}
