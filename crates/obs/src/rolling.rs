//! The rolling-quantile window: the brownout ladder's queue-wait
//! percentile and the flight recorder's slow threshold read the same
//! bounded sample window by the same rule. (The cluster's hedge delay
//! still keeps its own `(n−1)·99/100` window: at the 21 samples its
//! warm-up test holds, nearest rank picks the one cold outlier.)

use std::collections::VecDeque;

/// Push onto a newest-`capacity` window, dropping the oldest entry
/// once it is full — the one idiom behind every bounded log and
/// rolling window in the workspace.
pub fn push_bounded<T>(window: &mut VecDeque<T>, capacity: usize, value: T) {
    if window.len() >= capacity {
        window.pop_front();
    }
    window.push_back(value);
}

/// The newest `capacity` samples, read by nearest-rank quantile.
/// Warm-up minimums and floors are the caller's business.
#[derive(Debug, Clone)]
pub struct RollingQuantile {
    window: VecDeque<u64>,
    capacity: usize,
}

impl RollingQuantile {
    /// A window keeping at most `capacity` samples (at least one).
    pub fn new(capacity: usize) -> Self {
        RollingQuantile {
            window: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Add a sample, dropping the oldest once the window is full.
    pub fn push(&mut self, value: u64) {
        push_bounded(&mut self.window, self.capacity, value);
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when no sample has been pushed.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The `q`-quantile (`q` in 0..=1) by nearest rank: the sample at
    /// rank `ceil(n·q)` of the sorted window, clamped to `1..=n`.
    /// `None` on an empty window.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.window.len();
        if n == 0 {
            return None;
        }
        // One rank is read, so the window is partitioned around it, not
        // sorted: the flight recorder asks on every finished trace.
        let mut samples: Vec<u64> = self.window.iter().copied().collect();
        let rank = (n as f64 * q).ceil() as usize;
        Some(*samples.select_nth_unstable(rank.clamp(1, n) - 1).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let mut w = RollingQuantile::new(100);
        assert_eq!(w.quantile(0.5), None);
        for v in 1..=10 {
            w.push(v * 10);
        }
        assert_eq!(w.quantile(0.5), Some(50));
        assert_eq!(w.quantile(0.9), Some(90));
        assert_eq!(w.quantile(0.99), Some(100));
        assert_eq!(w.quantile(0.0), Some(10));
        assert_eq!(w.quantile(1.0), Some(100));
    }

    #[test]
    fn quantile_is_the_sorted_windows_rank_on_every_q() {
        let mut w = RollingQuantile::new(64);
        for i in 0..200u64 {
            w.push(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56);
            let mut sorted: Vec<u64> = w.window.iter().copied().collect();
            sorted.sort_unstable();
            for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
                let rank = (sorted.len() as f64 * q).ceil() as usize;
                assert_eq!(w.quantile(q), Some(sorted[rank.clamp(1, sorted.len()) - 1]));
            }
        }
    }

    #[test]
    fn window_keeps_only_the_newest_samples() {
        let mut w = RollingQuantile::new(4);
        for v in [1_000, 1, 2, 3, 4] {
            w.push(v);
        }
        assert_eq!(w.len(), 4);
        assert_eq!(w.quantile(1.0), Some(4));
    }
}
