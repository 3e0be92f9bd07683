//! Decoded column batches for the vectorized executor.

use dio_tsdb::Labels;

/// One series' full sample set as columns. Built once per physical
/// scan (per query), then every evaluation step slices windows out of
/// it with two binary searches — no per-step decode, no per-step
/// sample materialisation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SeriesBatch {
    /// Series identity (full label set including `__name__`).
    pub labels: Labels,
    /// Timestamp column (ms), strictly increasing.
    pub ts: Vec<i64>,
    /// Value column, parallel to `ts`.
    pub vals: Vec<f64>,
}

impl SeriesBatch {
    /// Index bounds `[lo, hi)` of the samples in the half-open time
    /// window `(start, end]`.
    pub(crate) fn window(&self, start: i64, end: i64) -> (usize, usize) {
        let lo = self.ts.partition_point(|&t| t <= start);
        let hi = self.ts.partition_point(|&t| t <= end);
        (lo, hi)
    }

    /// Like [`SeriesBatch::window`], but advancing from a previous
    /// step's bounds instead of binary-searching from scratch. Correct
    /// only when `start` and `end` never decrease across calls
    /// (ascending range-query steps): both bounds are monotone in the
    /// window edges, so a linear advance from the old bounds finds the
    /// same partition points, amortising to one pass over the column
    /// for the whole range query.
    pub(crate) fn window_from(&self, start: i64, end: i64, hint: (usize, usize)) -> (usize, usize) {
        let (mut lo, mut hi) = hint;
        while lo < self.ts.len() && self.ts[lo] <= start {
            lo += 1;
        }
        while hi < self.ts.len() && self.ts[hi] <= end {
            hi += 1;
        }
        (lo, hi)
    }

    /// Most recent value at or before `ts` within `lookback_ms` —
    /// instant-vector selection over columns.
    pub(crate) fn value_at(&self, ts: i64, lookback_ms: i64) -> Option<f64> {
        let i = self.ts.partition_point(|&t| t <= ts);
        if i == 0 || ts - self.ts[i - 1] > lookback_ms {
            None
        } else {
            Some(self.vals[i - 1])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> SeriesBatch {
        SeriesBatch {
            labels: Labels::name_only("m"),
            ts: vec![1000, 2000, 3000, 4000],
            vals: vec![1.0, 2.0, 3.0, 4.0],
        }
    }

    #[test]
    fn window_is_half_open() {
        let b = batch();
        assert_eq!(b.window(1000, 3000), (1, 3)); // (1000, 3000]
        assert_eq!(b.window(0, 5000), (0, 4));
        assert_eq!(b.window(4000, 9000), (4, 4)); // empty
        assert_eq!(b.window(500, 999), (0, 0));
    }

    #[test]
    fn value_at_respects_lookback() {
        let b = batch();
        assert_eq!(b.value_at(2500, 5000), Some(2.0));
        assert_eq!(b.value_at(2000, 5000), Some(2.0));
        assert_eq!(b.value_at(999, 5000), None);
        assert_eq!(b.value_at(9000, 1000), None);
        assert_eq!(b.value_at(5000, 1000), Some(4.0));
    }
}
