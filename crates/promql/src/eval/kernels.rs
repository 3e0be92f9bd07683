//! Range-function kernels over decoded columns.
//!
//! Each kernel is the computation of one range-vector function —
//! `rate`, `avg_over_time`, `predict_linear`, … — expressed over a
//! timestamp column and a value column. Both engines call *the same*
//! kernel code: the tree-walking interpreter unzips each window into
//! columns, the vectorized executor slices windows straight out of
//! decoded chunk columns. Sharing the arithmetic (same operations in
//! the same order) is what makes the two engines byte-identical, which
//! the differential harness then enforces.

use crate::eval::aggregate::quantile;

/// Where the scalar parameter sits in the PromQL argument list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParamPos {
    /// `quantile_over_time(φ, m[5m])`.
    BeforeMatrix,
    /// `predict_linear(m[5m], horizon)`.
    AfterMatrix,
}

/// A range-vector function kernel. One window in, one optional value
/// out (`None` drops the series from the result, as Prometheus does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub(crate) enum RangeKernel {
    /// `rate`: counter increase per second, with reset detection.
    Rate,
    /// `increase`: total counter increase over the window.
    Increase,
    /// `irate`: instantaneous rate from the last two points.
    Irate,
    /// `delta`: last minus first value.
    Delta,
    /// `idelta`: last minus second-to-last value.
    Idelta,
    /// `resets`: number of counter resets.
    Resets,
    /// `changes`: number of value changes.
    Changes,
    /// `deriv`: least-squares slope per second.
    Deriv,
    /// `avg_over_time`.
    Avg,
    /// `sum_over_time`.
    Sum,
    /// `min_over_time`.
    Min,
    /// `max_over_time`.
    Max,
    /// `count_over_time`.
    Count,
    /// `last_over_time`.
    Last,
    /// `present_over_time`.
    Present,
    /// `stddev_over_time` (population).
    Stddev,
    /// `stdvar_over_time` (population).
    Stdvar,
    /// `quantile_over_time(φ, m[r])`.
    Quantile,
    /// `predict_linear(m[r], horizon)`.
    PredictLinear,
}

impl RangeKernel {
    /// Map a PromQL function name to its kernel.
    pub(crate) fn from_name(func: &str) -> Option<RangeKernel> {
        Some(match func {
            "rate" => RangeKernel::Rate,
            "increase" => RangeKernel::Increase,
            "irate" => RangeKernel::Irate,
            "delta" => RangeKernel::Delta,
            "idelta" => RangeKernel::Idelta,
            "resets" => RangeKernel::Resets,
            "changes" => RangeKernel::Changes,
            "deriv" => RangeKernel::Deriv,
            "avg_over_time" => RangeKernel::Avg,
            "sum_over_time" => RangeKernel::Sum,
            "min_over_time" => RangeKernel::Min,
            "max_over_time" => RangeKernel::Max,
            "count_over_time" => RangeKernel::Count,
            "last_over_time" => RangeKernel::Last,
            "present_over_time" => RangeKernel::Present,
            "stddev_over_time" => RangeKernel::Stddev,
            "stdvar_over_time" => RangeKernel::Stdvar,
            "quantile_over_time" => RangeKernel::Quantile,
            "predict_linear" => RangeKernel::PredictLinear,
            _ => return None,
        })
    }

    /// The PromQL function name.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            RangeKernel::Rate => "rate",
            RangeKernel::Increase => "increase",
            RangeKernel::Irate => "irate",
            RangeKernel::Delta => "delta",
            RangeKernel::Idelta => "idelta",
            RangeKernel::Resets => "resets",
            RangeKernel::Changes => "changes",
            RangeKernel::Deriv => "deriv",
            RangeKernel::Avg => "avg_over_time",
            RangeKernel::Sum => "sum_over_time",
            RangeKernel::Min => "min_over_time",
            RangeKernel::Max => "max_over_time",
            RangeKernel::Count => "count_over_time",
            RangeKernel::Last => "last_over_time",
            RangeKernel::Present => "present_over_time",
            RangeKernel::Stddev => "stddev_over_time",
            RangeKernel::Stdvar => "stdvar_over_time",
            RangeKernel::Quantile => "quantile_over_time",
            RangeKernel::PredictLinear => "predict_linear",
        }
    }

    /// Position of the scalar parameter, when the function takes one.
    pub(crate) fn param_pos(&self) -> Option<ParamPos> {
        match self {
            RangeKernel::Quantile => Some(ParamPos::BeforeMatrix),
            RangeKernel::PredictLinear => Some(ParamPos::AfterMatrix),
            _ => None,
        }
    }

    /// Apply the kernel to one window. `ts` and `vals` are parallel
    /// columns with strictly increasing timestamps; `param` is the
    /// scalar argument (ignored by parameterless kernels).
    pub(crate) fn apply(&self, param: f64, ts: &[i64], vals: &[f64]) -> Option<f64> {
        let n = vals.len();
        match self {
            RangeKernel::Rate => counter_increase(ts, vals).map(|(inc, secs)| inc / secs),
            RangeKernel::Increase => counter_increase(ts, vals).map(|(inc, _)| inc),
            RangeKernel::Irate => {
                if n < 2 {
                    return None;
                }
                let secs = (ts[n - 1] - ts[n - 2]) as f64 / 1000.0;
                if secs <= 0.0 {
                    return None;
                }
                let inc = if vals[n - 1] >= vals[n - 2] {
                    vals[n - 1] - vals[n - 2]
                } else {
                    vals[n - 1]
                };
                Some(inc / secs)
            }
            RangeKernel::Delta => {
                if n < 2 {
                    return None;
                }
                Some(vals[n - 1] - vals[0])
            }
            RangeKernel::Idelta => {
                if n < 2 {
                    return None;
                }
                Some(vals[n - 1] - vals[n - 2])
            }
            RangeKernel::Resets => {
                nonempty(vals).map(|v| v.windows(2).filter(|w| w[1] < w[0]).count() as f64)
            }
            RangeKernel::Changes => {
                nonempty(vals).map(|v| v.windows(2).filter(|w| w[1] != w[0]).count() as f64)
            }
            RangeKernel::Deriv => lsq_slope(ts, vals).map(|(slope, _)| slope),
            RangeKernel::Avg => {
                nonempty(vals).map(|v| v.iter().sum::<f64>() / v.len() as f64)
            }
            RangeKernel::Sum => nonempty(vals).map(|v| v.iter().sum()),
            RangeKernel::Min => {
                nonempty(vals).map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
            }
            RangeKernel::Max => {
                nonempty(vals).map(|v| v.iter().copied().fold(f64::NEG_INFINITY, f64::max))
            }
            RangeKernel::Count => nonempty(vals).map(|v| v.len() as f64),
            RangeKernel::Last => vals.last().copied(),
            RangeKernel::Present => nonempty(vals).map(|_| 1.0),
            RangeKernel::Stddev => nonempty(vals).map(|v| pop_variance(v).sqrt()),
            RangeKernel::Stdvar => nonempty(vals).map(pop_variance),
            RangeKernel::Quantile => nonempty(vals).map(|v| quantile(param, v)),
            RangeKernel::PredictLinear => {
                lsq_slope(ts, vals).map(|(slope, last)| last + slope * param)
            }
        }
    }
}

fn nonempty(vals: &[f64]) -> Option<&[f64]> {
    if vals.is_empty() {
        None
    } else {
        Some(vals)
    }
}

/// Counter increase over a window with reset detection; returns the
/// total increase and the covered seconds. `None` with <2 samples.
///
/// Deliberate divergence from Prometheus: no boundary extrapolation —
/// both generated and reference queries run through this same engine,
/// so execution-accuracy comparisons stay exact (see crate docs).
fn counter_increase(ts: &[i64], vals: &[f64]) -> Option<(f64, f64)> {
    let n = vals.len();
    if n < 2 {
        return None;
    }
    let secs = (ts[n - 1] - ts[0]) as f64 / 1000.0;
    if secs <= 0.0 {
        return None;
    }
    let mut inc = 0.0;
    for w in vals.windows(2) {
        if w[1] >= w[0] {
            inc += w[1] - w[0];
        } else {
            // Counter reset: the new value is the increase since reset.
            inc += w[1];
        }
    }
    Some((inc, secs))
}

/// Population variance of the value column.
fn pop_variance(vals: &[f64]) -> f64 {
    let n = vals.len() as f64;
    let mean = vals.iter().sum::<f64>() / n;
    vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n
}

/// Least-squares slope (per second) and last value.
fn lsq_slope(ts: &[i64], vals: &[f64]) -> Option<(f64, f64)> {
    if vals.len() < 2 {
        return None;
    }
    let n = vals.len() as f64;
    let t0 = ts[0];
    let xs: Vec<f64> = ts.iter().map(|&t| (t - t0) as f64 / 1000.0).collect();
    let sx: f64 = xs.iter().sum();
    let sy: f64 = vals.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(vals).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom == 0.0 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    Some((slope, *vals.last().unwrap()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in [
            RangeKernel::Rate,
            RangeKernel::Increase,
            RangeKernel::Irate,
            RangeKernel::Delta,
            RangeKernel::Idelta,
            RangeKernel::Resets,
            RangeKernel::Changes,
            RangeKernel::Deriv,
            RangeKernel::Avg,
            RangeKernel::Sum,
            RangeKernel::Min,
            RangeKernel::Max,
            RangeKernel::Count,
            RangeKernel::Last,
            RangeKernel::Present,
            RangeKernel::Stddev,
            RangeKernel::Stdvar,
            RangeKernel::Quantile,
            RangeKernel::PredictLinear,
        ] {
            assert_eq!(RangeKernel::from_name(k.name()), Some(k));
        }
        assert_eq!(RangeKernel::from_name("histogram_quantile"), None);
    }

    #[test]
    fn rate_with_reset() {
        let ts = [0, 60_000, 120_000, 180_000];
        let vals = [0.0, 100.0, 20.0, 50.0];
        // 0→100 (+100), reset→20 (+20), 20→50 (+30) = 150 over 180s.
        let inc = RangeKernel::Increase.apply(0.0, &ts, &vals).unwrap();
        assert_eq!(inc, 150.0);
        let rate = RangeKernel::Rate.apply(0.0, &ts, &vals).unwrap();
        assert!((rate - 150.0 / 180.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_sample_windows() {
        for k in [RangeKernel::Rate, RangeKernel::Delta, RangeKernel::Deriv] {
            assert_eq!(k.apply(0.0, &[], &[]), None);
            assert_eq!(k.apply(0.0, &[1000], &[3.0]), None);
        }
        assert_eq!(RangeKernel::Avg.apply(0.0, &[], &[]), None);
        assert_eq!(RangeKernel::Last.apply(0.0, &[1000], &[3.0]), Some(3.0));
        assert_eq!(RangeKernel::Count.apply(0.0, &[1000], &[3.0]), Some(1.0));
    }

    #[test]
    fn over_time_family_matches_hand_results() {
        let ts = [0, 1000, 2000, 3000];
        let vals = [10.0, 12.0, 9.0, 15.0];
        assert_eq!(RangeKernel::Avg.apply(0.0, &ts, &vals), Some(11.5));
        assert_eq!(RangeKernel::Sum.apply(0.0, &ts, &vals), Some(46.0));
        assert_eq!(RangeKernel::Min.apply(0.0, &ts, &vals), Some(9.0));
        assert_eq!(RangeKernel::Max.apply(0.0, &ts, &vals), Some(15.0));
        assert_eq!(RangeKernel::Resets.apply(0.0, &ts, &vals), Some(1.0));
        assert_eq!(RangeKernel::Changes.apply(0.0, &ts, &vals), Some(3.0));
        assert_eq!(RangeKernel::Quantile.apply(0.5, &ts, &vals), Some(11.0));
    }

    #[test]
    fn predict_linear_extrapolates() {
        let ts: Vec<i64> = (0..=10).map(|k| k * 60_000).collect();
        let vals: Vec<f64> = (0..=10).map(|k| (k * 60) as f64).collect();
        let v = RangeKernel::PredictLinear.apply(60.0, &ts, &vals).unwrap();
        assert!((v - 660.0).abs() < 1e-6);
        let d = RangeKernel::Deriv.apply(0.0, &ts, &vals).unwrap();
        assert!((d - 1.0).abs() < 1e-9);
    }
}
