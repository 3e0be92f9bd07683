//! PromQL function library.

use crate::ast::Expr;
use crate::error::EvalError;
use crate::eval::kernels::{ParamPos, RangeKernel};
use crate::eval::{drop_names, scalar_to_vector, sort_vector, Evaluator};
use crate::value::{RangeVector, Value, VectorSample};
use dio_tsdb::{MatchOp, Labels};

/// Evaluate a function call.
pub(crate) fn eval_call(
    ev: &Evaluator<'_>,
    func: &str,
    args: &[Expr],
    ts: i64,
) -> Result<Value, EvalError> {
    // The range-vector family — rate, *_over_time, predict_linear, … —
    // dispatches through the shared column kernels (the same code the
    // vectorized executor runs).
    if let Some(kernel) = RangeKernel::from_name(func) {
        return eval_range_kernel(ev, kernel, args, ts);
    }
    match func {
        // ---- simple math on instant vectors ----
        "abs" => math_fn(ev, func, args, ts, f64::abs),
        "ceil" => math_fn(ev, func, args, ts, f64::ceil),
        "floor" => math_fn(ev, func, args, ts, f64::floor),
        "exp" => math_fn(ev, func, args, ts, f64::exp),
        "ln" => math_fn(ev, func, args, ts, f64::ln),
        "log2" => math_fn(ev, func, args, ts, f64::log2),
        "log10" => math_fn(ev, func, args, ts, f64::log10),
        "sqrt" => math_fn(ev, func, args, ts, f64::sqrt),
        "sgn" => math_fn(ev, func, args, ts, |v| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                v // preserves 0 and NaN
            }
        }),
        "round" => {
            if args.is_empty() || args.len() > 2 {
                return Err(EvalError::BadArguments(
                    "round takes 1 or 2 arguments".to_string(),
                ));
            }
            let to = if args.len() == 2 {
                scalar_arg(ev, func, &args[1], ts)?
            } else {
                1.0
            };
            if to <= 0.0 {
                return Err(EvalError::BadArguments(
                    "round() second argument must be positive".to_string(),
                ));
            }
            math_fn(ev, func, &args[..1], ts, move |v| (v / to).round() * to)
        }
        "clamp" => {
            expect_args(func, args, 3)?;
            let lo = scalar_arg(ev, func, &args[1], ts)?;
            let hi = scalar_arg(ev, func, &args[2], ts)?;
            math_fn(ev, func, &args[..1], ts, move |v| v.clamp(lo, hi.max(lo)))
        }
        "clamp_min" => {
            expect_args(func, args, 2)?;
            let lo = scalar_arg(ev, func, &args[1], ts)?;
            math_fn(ev, func, &args[..1], ts, move |v| v.max(lo))
        }
        "clamp_max" => {
            expect_args(func, args, 2)?;
            let hi = scalar_arg(ev, func, &args[1], ts)?;
            math_fn(ev, func, &args[..1], ts, move |v| v.min(hi))
        }

        // ---- conversions and utilities ----
        "scalar" => {
            expect_args(func, args, 1)?;
            match ev.eval(&args[0], ts)? {
                Value::Vector(v) if v.len() == 1 => Ok(Value::Scalar(v[0].value)),
                Value::Vector(_) => Ok(Value::Scalar(f64::NAN)),
                Value::Scalar(s) => Ok(Value::Scalar(s)),
                other => Err(EvalError::TypeMismatch(format!(
                    "scalar() requires an instant vector, got {}",
                    other.type_name()
                ))),
            }
        }
        "vector" => {
            expect_args(func, args, 1)?;
            match ev.eval(&args[0], ts)? {
                Value::Scalar(s) => Ok(Value::Vector(scalar_to_vector(s))),
                other => Err(EvalError::TypeMismatch(format!(
                    "vector() requires a scalar, got {}",
                    other.type_name()
                ))),
            }
        }
        "time" => {
            expect_args(func, args, 0)?;
            Ok(Value::Scalar(ts as f64 / 1000.0))
        }
        "timestamp" => {
            expect_args(func, args, 1)?;
            let v = vector_arg(ev, func, &args[0], ts)?;
            Ok(Value::Vector(
                v.into_iter()
                    .map(|s| VectorSample {
                        labels: s.labels.drop_name(),
                        value: ts as f64 / 1000.0,
                    })
                    .collect(),
            ))
        }
        "sort" | "sort_desc" => {
            expect_args(func, args, 1)?;
            let mut v = vector_arg(ev, func, &args[0], ts)?;
            v.sort_by(|a, b| {
                let ord = a.value.partial_cmp(&b.value).unwrap_or(std::cmp::Ordering::Equal);
                if func == "sort" {
                    ord
                } else {
                    ord.reverse()
                }
                .then_with(|| a.labels.cmp(&b.labels))
            });
            Ok(Value::Vector(v))
        }
        "absent" => {
            expect_args(func, args, 1)?;
            let v = vector_arg(ev, func, &args[0], ts)?;
            if !v.is_empty() {
                return Ok(Value::Vector(vec![]));
            }
            // Derive labels from equality matchers when the argument is a
            // plain selector, as Prometheus does.
            let labels = match &args[0] {
                Expr::VectorSelector { name, matchers, .. } => {
                    let mut l = Labels::empty();
                    if let Some(n) = name {
                        l = l.with("__name__", n.clone()).drop_name(); // name not included
                        let _ = n;
                    }
                    for m in matchers {
                        if m.op == MatchOp::Eq {
                            l = l.with(m.name.clone(), m.value.clone());
                        }
                    }
                    l
                }
                _ => Labels::empty(),
            };
            Ok(Value::Vector(vec![VectorSample { labels, value: 1.0 }]))
        }
        "histogram_quantile" => {
            expect_args(func, args, 2)?;
            let phi = scalar_arg(ev, func, &args[0], ts)?;
            let v = vector_arg(ev, func, &args[1], ts)?;
            histogram_quantile(phi, v)
        }
        "label_replace" => {
            expect_args(func, args, 5)?;
            let v = vector_arg(ev, func, &args[0], ts)?;
            let dst = string_arg(ev, func, &args[1], ts)?;
            let repl = string_arg(ev, func, &args[2], ts)?;
            let src = string_arg(ev, func, &args[3], ts)?;
            let pattern = string_arg(ev, func, &args[4], ts)?;
            label_replace(v, &dst, &repl, &src, &pattern)
        }
        "minute" | "hour" | "day_of_week" | "day_of_month" | "day_of_year" | "month"
        | "year" | "days_in_month" => {
            // Time functions take an optional vector of timestamps
            // (seconds); default is the evaluation time.
            if args.len() > 1 {
                return Err(EvalError::BadArguments(format!(
                    "{func} takes at most 1 argument"
                )));
            }
            let inputs: Vec<VectorSample> = if let Some(arg) = args.first() {
                vector_arg(ev, func, arg, ts)?
            } else {
                scalar_to_vector(ts as f64 / 1000.0)
            };
            let mut out: Vec<VectorSample> = inputs
                .into_iter()
                .map(|s| {
                    let civil = CivilTime::from_unix_seconds(s.value as i64);
                    let value = match func {
                        "minute" => civil.minute as f64,
                        "hour" => civil.hour as f64,
                        "day_of_week" => civil.day_of_week as f64,
                        "day_of_month" => civil.day as f64,
                        "day_of_year" => civil.day_of_year as f64,
                        "month" => civil.month as f64,
                        "year" => civil.year as f64,
                        _ => civil.days_in_month as f64,
                    };
                    VectorSample {
                        labels: s.labels.drop_name(),
                        value,
                    }
                })
                .collect();
            sort_vector(&mut out);
            Ok(Value::Vector(out))
        }
        "label_join" => {
            if args.len() < 3 {
                return Err(EvalError::BadArguments(
                    "label_join takes at least 3 arguments".to_string(),
                ));
            }
            let v = vector_arg(ev, func, &args[0], ts)?;
            let dst = string_arg(ev, func, &args[1], ts)?;
            let sep = string_arg(ev, func, &args[2], ts)?;
            let mut srcs = Vec::new();
            for a in &args[3..] {
                srcs.push(string_arg(ev, func, a, ts)?);
            }
            let mut out: Vec<VectorSample> = v
                .into_iter()
                .map(|s| {
                    let joined: Vec<&str> = srcs
                        .iter()
                        .map(|src| s.labels.get(src).unwrap_or(""))
                        .collect();
                    VectorSample {
                        labels: s.labels.with(dst.clone(), joined.join(&sep)),
                        value: s.value,
                    }
                })
                .collect();
            sort_vector(&mut out);
            Ok(Value::Vector(out))
        }
        other => Err(EvalError::UnknownFunction(other.to_string())),
    }
}

// ---------- helpers ----------

/// Civil (proleptic Gregorian, UTC) time decomposition, via Howard
/// Hinnant's days-from-civil algorithm — no external time crate.
struct CivilTime {
    year: i64,
    /// 1–12.
    month: u32,
    /// 1–31.
    day: u32,
    /// 0–23.
    hour: u32,
    /// 0–59.
    minute: u32,
    /// 0 = Sunday … 6 = Saturday (Prometheus `day_of_week`).
    day_of_week: u32,
    /// 1–366.
    day_of_year: u32,
    /// 28–31.
    days_in_month: u32,
}

impl CivilTime {
    fn from_unix_seconds(secs: i64) -> Self {
        let days = secs.div_euclid(86_400);
        let secs_of_day = secs.rem_euclid(86_400);

        // civil_from_days (Hinnant).
        let z = days + 719_468;
        let era = z.div_euclid(146_097);
        let doe = z.rem_euclid(146_097); // day of era [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11], March-based
        let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
        let year = if month <= 2 { y + 1 } else { y };

        let leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
        let days_in_month = match month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            _ => {
                if leap {
                    29
                } else {
                    28
                }
            }
        };
        let cumulative = [0u32, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334];
        let mut day_of_year = cumulative[(month - 1) as usize] + day;
        if leap && month > 2 {
            day_of_year += 1;
        }
        // 1970-01-01 was a Thursday (dow 4 with Sunday = 0).
        let day_of_week = (days + 4).rem_euclid(7) as u32;

        CivilTime {
            year,
            month,
            day,
            hour: (secs_of_day / 3600) as u32,
            minute: ((secs_of_day / 60) % 60) as u32,
            day_of_week,
            day_of_year,
            days_in_month,
        }
    }
}

fn expect_args(func: &str, args: &[Expr], n: usize) -> Result<(), EvalError> {
    if args.len() != n {
        return Err(EvalError::BadArguments(format!(
            "{func} takes {n} argument(s), got {}",
            args.len()
        )));
    }
    Ok(())
}

fn vector_arg(
    ev: &Evaluator<'_>,
    func: &str,
    arg: &Expr,
    ts: i64,
) -> Result<Vec<VectorSample>, EvalError> {
    match ev.eval(arg, ts)? {
        Value::Vector(v) => Ok(v),
        other => Err(EvalError::TypeMismatch(format!(
            "{func} requires an instant vector, got {}",
            other.type_name()
        ))),
    }
}

fn matrix_arg(
    ev: &Evaluator<'_>,
    func: &str,
    arg: &Expr,
    ts: i64,
) -> Result<RangeVector, EvalError> {
    match ev.eval(arg, ts)? {
        Value::Matrix(m) => Ok(m),
        other => Err(EvalError::TypeMismatch(format!(
            "{func} requires a range vector, got {}",
            other.type_name()
        ))),
    }
}

fn scalar_arg(ev: &Evaluator<'_>, func: &str, arg: &Expr, ts: i64) -> Result<f64, EvalError> {
    match ev.eval(arg, ts)? {
        Value::Scalar(s) => Ok(s),
        other => Err(EvalError::TypeMismatch(format!(
            "{func} requires a scalar argument, got {}",
            other.type_name()
        ))),
    }
}

fn string_arg(ev: &Evaluator<'_>, func: &str, arg: &Expr, ts: i64) -> Result<String, EvalError> {
    match ev.eval(arg, ts)? {
        Value::Str(s) => Ok(s),
        other => Err(EvalError::TypeMismatch(format!(
            "{func} requires a string argument, got {}",
            other.type_name()
        ))),
    }
}

/// Evaluate a range-family call: resolve arguments in the same order
/// Prometheus (and our error messages) expect, then run the kernel
/// over every series window.
fn eval_range_kernel(
    ev: &Evaluator<'_>,
    kernel: RangeKernel,
    args: &[Expr],
    ts: i64,
) -> Result<Value, EvalError> {
    let func = kernel.name();
    let (param, matrix) = match kernel.param_pos() {
        None => {
            expect_args(func, args, 1)?;
            (0.0, matrix_arg(ev, func, &args[0], ts)?)
        }
        Some(ParamPos::BeforeMatrix) => {
            expect_args(func, args, 2)?;
            let p = scalar_arg(ev, func, &args[0], ts)?;
            (p, matrix_arg(ev, func, &args[1], ts)?)
        }
        Some(ParamPos::AfterMatrix) => {
            expect_args(func, args, 2)?;
            let m = matrix_arg(ev, func, &args[0], ts)?;
            (scalar_arg(ev, func, &args[1], ts)?, m)
        }
    };
    Ok(Value::Vector(apply_kernel_over_matrix(
        matrix, kernel, param,
    )))
}

/// Run `kernel` over every series of a materialised range vector,
/// dropping the metric name from surviving series and sorting — the
/// interpreter half of the shared-kernel contract.
pub(crate) fn apply_kernel_over_matrix(
    matrix: RangeVector,
    kernel: RangeKernel,
    param: f64,
) -> Vec<VectorSample> {
    let mut out: Vec<VectorSample> = matrix
        .into_iter()
        .filter_map(|series| {
            let (ts_col, vals): (Vec<i64>, Vec<f64>) = series
                .samples
                .iter()
                .map(|s| (s.timestamp_ms, s.value))
                .unzip();
            kernel.apply(param, &ts_col, &vals).map(|value| VectorSample {
                labels: series.labels.drop_name(),
                value,
            })
        })
        .collect();
    sort_vector(&mut out);
    out
}

fn math_fn<F>(
    ev: &Evaluator<'_>,
    func: &str,
    args: &[Expr],
    ts: i64,
    f: F,
) -> Result<Value, EvalError>
where
    F: Fn(f64) -> f64,
{
    expect_args(func, args, 1)?;
    match ev.eval(&args[0], ts)? {
        Value::Vector(v) => {
            let mut out: Vec<VectorSample> = drop_names(v)
                .into_iter()
                .map(|s| VectorSample {
                    labels: s.labels,
                    value: f(s.value),
                })
                .collect();
            sort_vector(&mut out);
            Ok(Value::Vector(out))
        }
        // Accepting scalars here is a small ergonomic extension over
        // Prometheus (which only defines these on vectors).
        Value::Scalar(s) => Ok(Value::Scalar(f(s))),
        other => Err(EvalError::TypeMismatch(format!(
            "{func} requires an instant vector, got {}",
            other.type_name()
        ))),
    }
}

/// `histogram_quantile` over `<basename>_bucket`-style series with `le`
/// labels.
fn histogram_quantile(phi: f64, v: Vec<VectorSample>) -> Result<Value, EvalError> {
    use std::collections::HashMap;
    // Group by labels minus le (and name).
    let mut groups: HashMap<Labels, Vec<(f64, f64)>> = HashMap::new();
    for s in v {
        let Some(le) = s.labels.get("le") else {
            continue; // non-bucket series are ignored
        };
        let le_val = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse::<f64>().unwrap_or(f64::NAN)
        };
        if le_val.is_nan() {
            continue;
        }
        let key = s.labels.drop_name().without("le");
        groups.entry(key).or_default().push((le_val, s.value));
    }
    let mut out = Vec::new();
    for (labels, mut buckets) in groups {
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        if buckets.len() < 2 || !buckets.last().unwrap().0.is_infinite() {
            continue; // need at least one finite bucket plus +Inf
        }
        let total = buckets.last().unwrap().1;
        if total <= 0.0 {
            continue;
        }
        let rank = phi.clamp(0.0, 1.0) * total;
        let mut result = f64::NAN;
        let mut prev_le = 0.0;
        let mut prev_count = 0.0;
        for &(le, count) in &buckets {
            if count >= rank {
                if le.is_infinite() {
                    result = prev_le;
                } else {
                    let bucket_span = count - prev_count;
                    result = if bucket_span <= 0.0 {
                        le
                    } else {
                        prev_le + (le - prev_le) * ((rank - prev_count) / bucket_span)
                    };
                }
                break;
            }
            prev_le = le;
            prev_count = count;
        }
        out.push(VectorSample {
            labels,
            value: result,
        });
    }
    sort_vector(&mut out);
    Ok(Value::Vector(out))
}

/// `label_replace` with the supported pattern subset: the regex must be
/// fully matched; a single capture group of the form `(.*)`/`(.+)` is
/// supported, optionally surrounded by literal text.
fn label_replace(
    v: Vec<VectorSample>,
    dst: &str,
    repl: &str,
    src: &str,
    pattern: &str,
) -> Result<Value, EvalError> {
    let mut out = Vec::with_capacity(v.len());
    for s in v {
        let value = s.labels.get(src).unwrap_or("").to_string();
        let (matched, capture) = match_with_capture(pattern, &value);
        let labels = if matched {
            let new_val = repl.replace("$1", &capture);
            if new_val.is_empty() {
                s.labels.without(dst)
            } else {
                s.labels.with(dst.to_string(), new_val)
            }
        } else {
            s.labels.clone()
        };
        out.push(VectorSample {
            labels,
            value: s.value,
        });
    }
    sort_vector(&mut out);
    Ok(Value::Vector(out))
}

/// Match `text` against `pattern`, returning (matched, first-capture).
fn match_with_capture(pattern: &str, text: &str) -> (bool, String) {
    if let (Some(open), Some(close)) = (pattern.find('('), pattern.rfind(')')) {
        if open < close {
            let prefix = &pattern[..open];
            let group = &pattern[open + 1..close];
            let suffix = &pattern[close + 1..];
            if (group == ".*" || group == ".+")
                && text.starts_with(prefix)
                && text.ends_with(suffix)
                && text.len() >= prefix.len() + suffix.len()
            {
                let mid = &text[prefix.len()..text.len() - suffix.len()];
                if group == ".+" && mid.is_empty() {
                    return (false, String::new());
                }
                return (true, mid.to_string());
            }
            return (false, String::new());
        }
    }
    (
        dio_tsdb::pattern_match(pattern, text),
        String::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use dio_tsdb::{MetricStore, Sample};

    /// Store with a counter (60/min) and a gauge.
    fn store() -> MetricStore {
        let mut st = MetricStore::new();
        let counter = Labels::from_pairs([("__name__", "reqs_total"), ("i", "a")]);
        for k in 0..=10i64 {
            st.append(counter.clone(), Sample::new(k * 60_000, (k * 60) as f64))
                .unwrap();
        }
        let gauge = Labels::from_pairs([("__name__", "temp"), ("i", "a")]);
        for (k, v) in [(0i64, 10.0), (1, 12.0), (2, 9.0), (3, 15.0)] {
            st.append(gauge.clone(), Sample::new(k * 60_000, v)).unwrap();
        }
        st
    }

    fn eval(q: &str, ts: i64) -> Result<Value, EvalError> {
        let st = store();
        let ev = Evaluator::new(&st, 300_000, 0);
        ev.eval(&parse(q).unwrap(), ts)
    }

    #[test]
    fn rate_of_steady_counter() {
        let v = eval("rate(reqs_total[5m])", 600_000).unwrap();
        assert!((v.as_scalar_like().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn increase_over_window() {
        let v = eval("increase(reqs_total[5m])", 600_000).unwrap();
        // 5 samples in (300s, 600s] → window covers 240s → 240 events.
        assert!((v.as_scalar_like().unwrap() - 240.0).abs() < 1e-9);
    }

    #[test]
    fn rate_handles_counter_reset() {
        let mut st = MetricStore::new();
        let l = Labels::name_only("c");
        for (t, v) in [(0i64, 0.0), (60_000, 100.0), (120_000, 20.0), (180_000, 50.0)] {
            st.append(l.clone(), Sample::new(t, v)).unwrap();
        }
        let ev = Evaluator::new(&st, 300_000, 0);
        let v = ev.eval(&parse("increase(c[10m])").unwrap(), 180_000).unwrap();
        // 0→100 (+100), reset→20 (+20), 20→50 (+30) = 150.
        assert_eq!(v.as_scalar_like(), Some(150.0));
    }

    #[test]
    fn irate_uses_last_two_points() {
        let v = eval("irate(reqs_total[5m])", 600_000).unwrap();
        assert!((v.as_scalar_like().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn delta_and_idelta_on_gauge() {
        let v = eval("delta(temp[5m])", 180_000).unwrap();
        assert_eq!(v.as_scalar_like(), Some(5.0)); // 15 - 10
        let v = eval("idelta(temp[5m])", 180_000).unwrap();
        assert_eq!(v.as_scalar_like(), Some(6.0)); // 15 - 9
    }

    #[test]
    fn resets_and_changes() {
        let v = eval("resets(temp[5m])", 180_000).unwrap();
        assert_eq!(v.as_scalar_like(), Some(1.0)); // 12 → 9
        let v = eval("changes(temp[5m])", 180_000).unwrap();
        assert_eq!(v.as_scalar_like(), Some(3.0));
    }

    #[test]
    fn over_time_family() {
        assert_eq!(
            eval("avg_over_time(temp[5m])", 180_000).unwrap().as_scalar_like(),
            Some(11.5)
        );
        assert_eq!(
            eval("sum_over_time(temp[5m])", 180_000).unwrap().as_scalar_like(),
            Some(46.0)
        );
        assert_eq!(
            eval("min_over_time(temp[5m])", 180_000).unwrap().as_scalar_like(),
            Some(9.0)
        );
        assert_eq!(
            eval("max_over_time(temp[5m])", 180_000).unwrap().as_scalar_like(),
            Some(15.0)
        );
        assert_eq!(
            eval("count_over_time(temp[5m])", 180_000).unwrap().as_scalar_like(),
            Some(4.0)
        );
        assert_eq!(
            eval("last_over_time(temp[5m])", 180_000).unwrap().as_scalar_like(),
            Some(15.0)
        );
        assert_eq!(
            eval("present_over_time(temp[5m])", 180_000).unwrap().as_scalar_like(),
            Some(1.0)
        );
        assert_eq!(
            eval("quantile_over_time(0.5, temp[5m])", 180_000)
                .unwrap()
                .as_scalar_like(),
            Some(11.0)
        );
    }

    #[test]
    fn deriv_and_predict_linear() {
        let v = eval("deriv(reqs_total[10m])", 600_000).unwrap();
        assert!((v.as_scalar_like().unwrap() - 1.0).abs() < 1e-9);
        let v = eval("predict_linear(reqs_total[10m], 60)", 600_000).unwrap();
        assert!((v.as_scalar_like().unwrap() - 660.0).abs() < 1e-6);
    }

    #[test]
    fn math_functions() {
        assert_eq!(eval("abs(-3)", 0).unwrap(), Value::Scalar(3.0));
        assert_eq!(eval("ceil(1.2)", 0).unwrap(), Value::Scalar(2.0));
        assert_eq!(eval("floor(1.8)", 0).unwrap(), Value::Scalar(1.0));
        assert_eq!(eval("sqrt(16)", 0).unwrap(), Value::Scalar(4.0));
        assert_eq!(eval("log2(8)", 0).unwrap(), Value::Scalar(3.0));
        assert_eq!(eval("sgn(-7)", 0).unwrap(), Value::Scalar(-1.0));
        assert_eq!(eval("round(2.7)", 0).unwrap(), Value::Scalar(3.0));
        assert_eq!(eval("round(2.7, 0.5)", 0).unwrap(), Value::Scalar(2.5));
    }

    #[test]
    fn clamp_family() {
        let v = eval("clamp(temp, 10, 12)", 180_000).unwrap();
        assert_eq!(v.as_scalar_like(), Some(12.0)); // 15 clamped
        let v = eval("clamp_min(temp, 20)", 180_000).unwrap();
        assert_eq!(v.as_scalar_like(), Some(20.0));
        let v = eval("clamp_max(temp, 3)", 180_000).unwrap();
        assert_eq!(v.as_scalar_like(), Some(3.0));
    }

    #[test]
    fn scalar_vector_time_timestamp() {
        assert_eq!(eval("scalar(temp)", 180_000).unwrap(), Value::Scalar(15.0));
        assert_eq!(
            eval("vector(42)", 0).unwrap().as_scalar_like(),
            Some(42.0)
        );
        assert_eq!(eval("time()", 120_000).unwrap(), Value::Scalar(120.0));
        assert_eq!(
            eval("timestamp(temp)", 180_000).unwrap().as_scalar_like(),
            Some(180.0)
        );
    }

    #[test]
    fn sort_functions() {
        let mut st = MetricStore::new();
        for (i, v) in [("a", 3.0), ("b", 1.0), ("c", 2.0)] {
            st.append(
                Labels::from_pairs([("__name__", "m"), ("i", i)]),
                Sample::new(0, v),
            )
            .unwrap();
        }
        let ev = Evaluator::new(&st, 300_000, 0);
        match ev.eval(&parse("sort(m)").unwrap(), 0).unwrap() {
            Value::Vector(v) => {
                let vals: Vec<f64> = v.iter().map(|s| s.value).collect();
                assert_eq!(vals, vec![1.0, 2.0, 3.0]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match ev.eval(&parse("sort_desc(m)").unwrap(), 0).unwrap() {
            Value::Vector(v) => {
                let vals: Vec<f64> = v.iter().map(|s| s.value).collect();
                assert_eq!(vals, vec![3.0, 2.0, 1.0]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn absent_semantics() {
        let v = eval("absent(nonexistent_metric)", 0).unwrap();
        match v {
            Value::Vector(v) => {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0].value, 1.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        let v = eval("absent(temp)", 180_000).unwrap();
        assert_eq!(v, Value::Vector(vec![]));
        // Equality matchers become labels.
        let v = eval(r#"absent(nope{nf="amf"})"#, 0).unwrap();
        match v {
            Value::Vector(v) => assert_eq!(v[0].labels.get("nf"), Some("amf")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn histogram_quantile_interpolates() {
        let mut st = MetricStore::new();
        for (le, count) in [("0.1", 10.0), ("0.5", 60.0), ("1", 90.0), ("+Inf", 100.0)] {
            st.append(
                Labels::from_pairs([("__name__", "lat_bucket"), ("le", le)]),
                Sample::new(0, count),
            )
            .unwrap();
        }
        let ev = Evaluator::new(&st, 300_000, 0);
        let v = ev
            .eval(&parse("histogram_quantile(0.5, lat_bucket)").unwrap(), 0)
            .unwrap();
        // rank 50: in (0.1, 0.5] bucket: 0.1 + 0.4*(40/50) = 0.42
        assert!((v.as_scalar_like().unwrap() - 0.42).abs() < 1e-9);
        // φ above the last finite bucket returns its lower bound.
        let v = ev
            .eval(&parse("histogram_quantile(0.99, lat_bucket)").unwrap(), 0)
            .unwrap();
        assert!((v.as_scalar_like().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn label_replace_with_capture() {
        let mut st = MetricStore::new();
        st.append(
            Labels::from_pairs([("__name__", "m"), ("instance", "amf-0")]),
            Sample::new(0, 1.0),
        )
        .unwrap();
        let ev = Evaluator::new(&st, 300_000, 0);
        let v = ev
            .eval(
                &parse(r#"label_replace(m, "nf", "$1", "instance", "(.*)-0")"#).unwrap(),
                0,
            )
            .unwrap();
        match v {
            Value::Vector(v) => assert_eq!(v[0].labels.get("nf"), Some("amf")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn label_join_concatenates() {
        let mut st = MetricStore::new();
        st.append(
            Labels::from_pairs([("__name__", "m"), ("a", "x"), ("b", "y")]),
            Sample::new(0, 1.0),
        )
        .unwrap();
        let ev = Evaluator::new(&st, 300_000, 0);
        let v = ev
            .eval(
                &parse(r#"label_join(m, "ab", "-", "a", "b")"#).unwrap(),
                0,
            )
            .unwrap();
        match v {
            Value::Vector(v) => assert_eq!(v[0].labels.get("ab"), Some("x-y")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_function_errors() {
        assert!(matches!(
            eval("frobnicate(temp)", 0),
            Err(EvalError::UnknownFunction(_))
        ));
    }

    #[test]
    fn wrong_arity_errors() {
        assert!(eval("rate(temp[5m], 3)", 0).is_err());
        assert!(eval("clamp(temp)", 0).is_err());
        assert!(eval("time(3)", 0).is_err());
    }

    #[test]
    fn rate_requires_matrix() {
        assert!(matches!(
            eval("rate(temp)", 180_000),
            Err(EvalError::TypeMismatch(_))
        ));
    }

    #[test]
    fn rate_single_sample_yields_empty() {
        let v = eval("rate(temp[30s])", 0).unwrap();
        assert_eq!(v, Value::Vector(vec![]));
    }
}
