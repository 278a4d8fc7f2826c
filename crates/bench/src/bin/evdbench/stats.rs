//! Order statistics of timing samples: median, quartiles, the tail
//! percentile rule, and the rate of completions.
//!
//! On a shared host a neighbour's load slows every call, by up to 1.6× on
//! the 2-vCPU VM the bounds were set on, for stretches of seconds to
//! minutes, and a run spends anywhere from none to most of its time in such
//! stretches. A median or a rate over the whole run moves with that share:
//! over ten runs of the same code there, its spread (quartile distance over
//! median) reached 21% for a call at n = 1024 and 14% for a service job. So
//! the median and the rate are taken per window of consecutive samples, and
//! a run reports its least-disturbed window, whose spread over the same ten
//! runs was 7% and 2%. A change to the program moves every window, that one
//! included.

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [u64; 11] = [99, 95, 90, 85, 80, 75, 70, 65, 60, 55, 50];

/// The tail percentile must leave at least this many samples beyond it.
const MIN_BEYOND: usize = 10;

/// Most consecutive windows a run is split into for the tail.
const WINDOWS: usize = 10;

/// Most consecutive windows a run is split into for the median and the
/// rate, and the fewest samples each holds. Shorter windows find a quiet
/// stretch more often: over ten runs, the spread for service jobs was 3.3%
/// with 10 windows and 2.1% with 40, and for calls at n = 1024 9.4% with
/// windows of three calls and 7.1% with windows of two.
const MEDIAN_WINDOWS: usize = 40;
const MIN_WINDOW: usize = 2;

/// Summary of one set of timing samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub samples: usize,
    /// The lowest of the medians of [`Summary::windows`] consecutive
    /// windows; with one window, the median of all samples.
    pub median: f64,
    pub windows: usize,
    /// Quartiles of all samples.
    pub q1: f64,
    pub q3: f64,
    /// Median over [`Summary::tail_windows`] consecutive windows of the
    /// value at [`Summary::tail_pct`].
    pub tail: f64,
    /// Highest ladder percentile with at least [`MIN_BEYOND`] samples
    /// beyond it (the median when there are too few samples for any).
    pub tail_pct: u64,
    /// The most windows, up to [`WINDOWS`], that each keep `tail_pct`.
    pub tail_windows: usize,
}

impl Summary {
    /// `samples` in the order they were taken; `None` for an empty set.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        Summary::over(samples, median_windows(samples.len()))
    }

    /// With the median of all samples: for samples that are each taken in
    /// a fresh process, such as `setup_s`.
    pub fn whole(samples: &[f64]) -> Option<Summary> {
        Summary::over(samples, 1)
    }

    fn over(samples: &[f64], median_windows: usize) -> Option<Summary> {
        let n = samples.len();
        let pct = tail_pct(n);
        let tail_windows = (1..=WINDOWS)
            .rev()
            .find(|&k| n / k > 2 * MIN_BEYOND && tail_pct(n / k) == pct)
            .unwrap_or(1);
        let tails: Vec<f64> = windows(samples, tail_windows)
            .filter_map(|w| sorted(w).get(rank(pct, w.len())).copied())
            .collect();
        let medians: Vec<f64> = windows(samples, median_windows)
            .filter_map(|w| quantile(&sorted(w), 0.5))
            .collect();
        let s = sorted(samples);
        Some(Summary {
            samples: n,
            median: *sorted(&medians).first()?,
            windows: medians.len(),
            q1: quantile(&s, 0.25)?,
            q3: quantile(&s, 0.75)?,
            tail: quantile(&sorted(&tails), 0.5)?,
            tail_pct: pct,
            tail_windows,
        })
    }
}

/// Windows for the median and the rate of `n` samples: up to
/// [`MEDIAN_WINDOWS`], each of at least [`MIN_WINDOW`] samples.
fn median_windows(n: usize) -> usize {
    (n / MIN_WINDOW).clamp(1, MEDIAN_WINDOWS)
}

/// Completions per second from the completion times, in seconds since the
/// timed phase began: the highest over the windows of [`median_windows`]
/// of a window's completions over its elapsed time. 0 without any.
pub fn rate(done_at: &[f64]) -> f64 {
    let mut start = 0.0;
    windows(done_at, median_windows(done_at.len()))
        .filter_map(|w| {
            let end = *w.last()?;
            let dt = end - std::mem::replace(&mut start, end);
            (dt > 0.0).then(|| w.len() as f64 / dt)
        })
        .fold(0.0, f64::max)
}

/// `v` split into at most `k` consecutive windows of near-equal length.
fn windows(v: &[f64], k: usize) -> impl Iterator<Item = &[f64]> {
    let (n, k) = (v.len(), k.clamp(1, v.len().max(1)));
    (0..k).map(move |i| &v[i * n / k..(i + 1) * n / k])
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 0-based nearest-rank index of percentile `pct` among `n ≥ 1` sorted
/// samples; `n − 1 − rank` samples lie beyond it.
fn rank(pct: u64, n: usize) -> usize {
    let n64 = n as u64;
    ((pct * n64).div_ceil(100).clamp(1, n64.max(1)) - 1) as usize
}

/// The tail percentile for `n` samples.
fn tail_pct(n: usize) -> u64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > rank(p, n) + MIN_BEYOND)
        .unwrap_or(50)
}

/// Quantile by the default (exclusive) method of Python's
/// `statistics.quantiles`: linear interpolation at 1-based position
/// `(n + 1)·p`, clamped to the sample range. `None` for no samples.
fn quantile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let pos = ((n as f64 + 1.0) * p).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let a = *sorted.get(lo.checked_sub(1)?)?;
    let b = *sorted.get(lo.min(n - 1))?;
    Some(a + (pos - lo as f64) * (b - a))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in 1..3000 {
            let p = tail_pct(n);
            let beyond = n - 1 - rank(p, n);
            if n > 2 * MIN_BEYOND {
                assert!(beyond >= MIN_BEYOND, "n={n} p{p} leaves {beyond}");
                // no higher ladder step would still leave ten beyond
                if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&q| q > p) {
                    assert!(n - 1 - rank(higher, n) < MIN_BEYOND, "n={n}");
                }
            } else {
                assert_eq!(p, 50, "n={n}");
            }
        }
        // the rule's named cases: p75 of 40 calls, p99 of 20 000 jobs
        assert_eq!(tail_pct(40), 75);
        assert_eq!(tail_pct(20_000), 99);
        // and every window keeps the percentile, with ten beyond it
        for n in [40, 200, 20_000, 30_761] {
            let s = Summary::of(&vec![1.0; n]).expect("non-empty");
            for w in windows(&vec![0.0; n], s.tail_windows) {
                assert!(w.len() - 1 - rank(s.tail_pct, w.len()) >= MIN_BEYOND);
            }
        }
        assert_eq!(Summary::of(&[1.0; 40]).map(|s| s.tail_windows), Some(1));
        assert_eq!(
            Summary::of(&[1.0; 20_000]).map(|s| s.tail_windows),
            Some(10)
        );
    }

    #[test]
    fn a_slow_stretch_moves_neither_median_nor_rate() {
        // 20 000 jobs of 1 to 1.5 ms with a 2% tail of 2 ms, spread evenly
        let quiet: Vec<f64> = (0..20_000)
            .map(|i| {
                if i % 50 == 0 {
                    2e-3
                } else {
                    1e-3 + (i % 5) as f64 * 0.125e-3
                }
            })
            .collect();
        // the same, with a stretch of the run 1.6 times slower
        let slowed = |stretch: std::ops::Range<usize>| -> Vec<f64> {
            quiet
                .iter()
                .enumerate()
                .map(|(i, t)| if stretch.contains(&i) { t * 1.6 } else { *t })
                .collect()
        };
        let done_at = |t: &[f64]| -> Vec<f64> {
            t.iter()
                .scan(0.0, |c, x| {
                    *c += x;
                    Some(*c)
                })
                .collect()
        };
        let q = Summary::of(&quiet).unwrap();
        assert_eq!(q.windows, 40);
        assert!((q.median - 1.25e-3).abs() < 1e-15, "{}", q.median);
        assert_eq!((q.tail_pct, q.tail_windows, q.tail), (99, 10, 2e-3));
        let rq = rate(&done_at(&quiet));
        let all = |t: &[f64]| quantile(&sorted(t), 0.5).unwrap();
        let sum = |t: &[f64]| t.len() as f64 / t.iter().sum::<f64>();
        // two tenths of the run, then seven tenths
        for stretch in [6000..10_000, 2000..16_000] {
            let b = slowed(stretch);
            let s = Summary::of(&b).unwrap();
            assert_eq!(q.median, s.median);
            let rb = rate(&done_at(&b));
            assert!((rq - rb).abs() < 1e-9 * rq, "{rq} vs {rb}");
            // a single pass over the run would have moved both
            assert!(all(&b) > all(&quiet));
            assert!(sum(&b) < 0.95 * sum(&quiet));
        }
        // the tail, a median over windows, holds against the short stretch
        assert_eq!(Summary::of(&slowed(6000..10_000)).unwrap().tail, q.tail);
        // a slower program moves every window
        let slower: Vec<f64> = quiet.iter().map(|t| t * 1.1).collect();
        assert!(Summary::of(&slower).unwrap().median > 1.05 * q.median);
        assert!(rate(&done_at(&slower)) < rq / 1.05);
        assert_eq!(rate(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=8], n=4) == [2.25, 4.5, 6.75]
        let s = Summary::of(&[8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]).expect("non-empty");
        assert_eq!((s.q1, s.q3), (2.25, 6.75));
        // windows [8, 1], [7, 2], [6, 3], [5, 3.5]: the lowest median
        let w = Summary::of(&[8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 3.5]).expect("non-empty");
        assert_eq!((w.windows, w.median), (4, 4.25));
        let whole = Summary::whole(&[8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 3.5]).expect("non-empty");
        assert_eq!((whole.windows, whole.median), (1, 4.25));
        assert_eq!(
            Summary::whole(&[3.0, 1.0, 2.0]).map(|s| s.median),
            Some(2.0)
        );
        let one = Summary::of(&[3.0]).expect("non-empty");
        assert_eq!((one.q1, one.median, one.q3, one.tail), (3.0, 3.0, 3.0, 3.0));
        assert!(Summary::of(&[]).is_none());
    }
}
