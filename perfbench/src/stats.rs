//! Order statistics shared by the served and traced runs.

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the sample cannot tell it from the maximum.
const MIN_TAIL: usize = 10;

/// Nearest-rank position (1-based) of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile `q` of ascending `sorted` samples, or `None`
/// when there are none.
fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// A tail quantile under the percentile rule: quantile `q` when at least
/// [`MIN_TAIL`] samples lie beyond it, otherwise the highest quantile
/// that has [`MIN_TAIL`] beyond it. Returns the value and the quantile
/// actually reported; `None` when the sample is too small for any tail
/// above its median.
fn tail_quantile(sorted: &[f64], q: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= 2 * MIN_TAIL {
        return None;
    }
    let wanted = rank(n, q);
    if wanted <= n - MIN_TAIL {
        Some((sorted[wanted - 1], q))
    } else {
        let highest = n - MIN_TAIL;
        Some((sorted[highest - 1], highest as f64 / n as f64))
    }
}

/// Blocks to cut `n` time-ordered samples into: as many as keep at least
/// `min` samples in each, at most `max`, at least one.
fn blocks(n: usize, min: usize, max: usize) -> usize {
    (n / min.max(1)).clamp(1, max)
}

/// Samples per block that a tail block needs, and the most blocks.
const TAIL_BLOCK: usize = 1000;
const MAX_BLOCKS: usize = 20;

/// The tail quantile `q` of time-ordered `latencies`, taken as the median
/// over consecutive blocks of at least [`TAIL_BLOCK`] samples of each
/// block's [`tail_quantile`], so that a burst of outside load confined to
/// a minority of blocks does not decide it. Returns the value, the
/// quantile reported (lowered only when one block is all the sample
/// supports) and the block count.
pub fn blocked_tail(latencies: &[f64], q: f64) -> Option<(f64, f64, usize)> {
    let k = blocks(latencies.len(), TAIL_BLOCK, MAX_BLOCKS);
    let size = latencies.len().div_ceil(k).max(1);
    let mut used = q;
    let mut tails = Vec::with_capacity(k);
    for block in latencies.chunks(size) {
        let mut sorted = block.to_vec();
        sort(&mut sorted);
        let (value, quantile) = tail_quantile(&sorted, q)?;
        used = used.min(quantile);
        tails.push(value);
    }
    median(&tails).map(|value| (value, used, tails.len()))
}

/// Median of unsorted samples, or `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    quantile(&sorted, 0.5)
}

/// Sort ascending; timings are finite by construction.
fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples that lie strictly beyond the nearest-rank quantile `q`.
    fn beyond(n: usize, q: f64) -> usize {
        n - rank(n, q)
    }

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let samples = ramp(100);
        assert_eq!(quantile(&samples, 0.5), Some(50.0));
        assert_eq!(quantile(&samples, 0.99), Some(99.0));
        assert_eq!(quantile(&samples, 1.0), Some(100.0));
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples leave exactly 10 beyond p99.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_quantile(&ramp(1000), 0.99), Some((990.0, 0.99)));
        assert_eq!(tail_quantile(&ramp(5000), 0.99), Some((4950.0, 0.99)));
        // 999 samples leave only 9 beyond p99, so the rule falls back to
        // the highest quantile with 10 beyond it: rank 989 of 999.
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(
            tail_quantile(&ramp(999), 0.99),
            Some((989.0, 989.0 / 999.0))
        );
        // 281 samples: p96.4 is the highest the sample supports.
        assert_eq!(
            tail_quantile(&ramp(281), 0.99),
            Some((271.0, 271.0 / 281.0))
        );
        // A lower quantile that is supported is reported as asked.
        assert_eq!(tail_quantile(&ramp(21), 0.5), Some((11.0, 0.5)));
        // Too few samples for any tail beyond the median.
        assert_eq!(tail_quantile(&ramp(20), 0.99), None);
        assert_eq!(tail_quantile(&[], 0.5), None);
    }

    #[test]
    fn block_counts_follow_the_sample() {
        assert_eq!(blocks(0, 1000, 20), 1);
        assert_eq!(blocks(999, 1000, 20), 1);
        assert_eq!(blocks(4300, 1000, 20), 4);
        assert_eq!(blocks(150_000, 1000, 20), 20);
    }

    #[test]
    fn blocked_tail_is_the_median_block() {
        // Three blocks of 1000; the middle one is slow throughout.
        let mut latencies = ramp(1000);
        latencies.extend(ramp(1000).iter().map(|v| v * 100.0));
        latencies.extend(ramp(1000).iter().map(|v| v + 0.5));
        assert_eq!(blocked_tail(&latencies, 0.99), Some((990.5, 0.99, 3)));
        // One block that cannot support p99 falls back like tail_quantile.
        assert_eq!(
            blocked_tail(&ramp(281), 0.99),
            Some((271.0, 271.0 / 281.0, 1))
        );
        assert_eq!(blocked_tail(&ramp(5), 0.99), None);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
