//! Aggregation operator evaluation.

use crate::ast::{AggOp, Grouping};
use crate::error::EvalError;
use crate::eval::sort_vector;
use crate::value::{Value, VectorSample};
use dio_tsdb::Labels;
use std::collections::HashMap;

/// Evaluate an aggregation over an instant vector.
pub(crate) fn eval_aggregate(
    op: AggOp,
    param: Option<Value>,
    inner: Value,
    grouping: &Grouping,
) -> Result<Value, EvalError> {
    let vector = match inner {
        Value::Vector(v) => v,
        other => {
            return Err(EvalError::TypeMismatch(format!(
                "aggregation {} requires an instant vector, got {}",
                op.as_str(),
                other.type_name()
            )))
        }
    };

    let groups = match grouping {
        // All one group, and no key is made or hashed per sample to
        // find that out.
        Grouping::None if !vector.is_empty() => vec![(Labels::empty(), vector)],
        _ => group_by(vector, |s| group_key(&s.labels, grouping)),
    };

    let mut out: Vec<VectorSample> = Vec::new();
    match op {
        AggOp::Topk | AggOp::Bottomk => {
            let k = param_scalar(&param, op)? as usize;
            for (_, mut members) in groups {
                members.sort_by(|a, b| {
                    let ord = a.value.partial_cmp(&b.value).unwrap_or(std::cmp::Ordering::Equal);
                    if op == AggOp::Topk {
                        ord.reverse()
                    } else {
                        ord
                    }
                    .then_with(|| a.labels.cmp(&b.labels))
                });
                // topk/bottomk keep the original sample labels.
                out.extend(members.into_iter().take(k));
            }
        }
        AggOp::CountValues => {
            let label = match &param {
                Some(Value::Str(s)) => s.clone(),
                _ => {
                    return Err(EvalError::BadArguments(
                        "count_values requires a string label parameter".to_string(),
                    ))
                }
            };
            let valued = groups
                .iter()
                .flat_map(|(key, members)| members.iter().map(move |m| (key, m.value)));
            let counted = group_by(valued, |(key, v)| key.with(label.clone(), format_value(*v)));
            out.extend(counted.into_iter().map(|(labels, hits)| VectorSample {
                labels,
                value: hits.len() as f64,
            }));
        }
        _ => {
            for (key, members) in groups {
                let values: Vec<f64> = members.iter().map(|m| m.value).collect();
                let value = match op {
                    AggOp::Quantile => quantile(param_scalar(&param, op)?, &values),
                    _ => fold(op, &values),
                };
                out.push(VectorSample { labels: key, value });
            }
        }
    }
    sort_vector(&mut out);
    Ok(Value::Vector(out))
}

/// Sort `items` into groups by `key`; groups stand in order of first
/// appearance and members in the order they came.
pub(crate) fn group_by<T>(
    items: impl IntoIterator<Item = T>,
    key: impl Fn(&T) -> Labels,
) -> Vec<(Labels, Vec<T>)> {
    let mut groups: Vec<(Labels, Vec<T>)> = Vec::new();
    let mut index: HashMap<Labels, usize> = HashMap::new();
    for item in items {
        let g = *index.entry(key(&item)).or_insert_with_key(|key| {
            groups.push((key.clone(), Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(item);
    }
    groups
}

/// One group's values, in the order the vector lists its members,
/// reduced by an operator that takes no parameter. The per-step
/// aggregation above and the executor's whole-range path both end
/// here, so they add the same floats in the same order.
pub(crate) fn fold(op: AggOp, values: &[f64]) -> f64 {
    match op {
        AggOp::Sum => values.iter().sum(),
        AggOp::Avg => values.iter().sum::<f64>() / values.len() as f64,
        AggOp::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
        AggOp::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        AggOp::Count => values.len() as f64,
        AggOp::Group => 1.0,
        AggOp::Stddev => variance(values).sqrt(),
        AggOp::Stdvar => variance(values),
        AggOp::Topk | AggOp::Bottomk | AggOp::Quantile | AggOp::CountValues => {
            unreachable!("{} takes a parameter", op.as_str())
        }
    }
}

/// The output labels of the group `labels` falls in.
pub(crate) fn group_key(labels: &Labels, grouping: &Grouping) -> Labels {
    match grouping {
        Grouping::None => Labels::empty(),
        Grouping::By(names) => {
            let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            labels.keep_only(&refs)
        }
        Grouping::Without(names) => {
            let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            labels.drop_listed_and_name(&refs)
        }
    }
}

fn param_scalar(param: &Option<Value>, op: AggOp) -> Result<f64, EvalError> {
    match param {
        Some(Value::Scalar(v)) => Ok(*v),
        _ => Err(EvalError::BadArguments(format!(
            "{} requires a scalar parameter",
            op.as_str()
        ))),
    }
}

/// Population variance (what Prometheus stdvar computes).
fn variance(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n
}

/// φ-quantile with linear interpolation (Prometheus semantics).
pub(crate) fn quantile(phi: f64, values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    if phi < 0.0 {
        return f64::NEG_INFINITY;
    }
    if phi > 1.0 {
        return f64::INFINITY;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len() as f64;
    let rank = phi * (n - 1.0);
    let lower = rank.floor() as usize;
    let upper = rank.ceil() as usize;
    let weight = rank - lower as f64;
    sorted[lower] * (1.0 - weight) + sorted[upper.min(sorted.len() - 1)] * weight
}

/// Format a float like Prometheus does for count_values labels.
fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(pairs: &[(&[(&str, &str)], f64)]) -> Value {
        Value::Vector(
            pairs
                .iter()
                .map(|(ls, v)| VectorSample {
                    labels: Labels::from_pairs(ls.iter().map(|(a, b)| (*a, *b))),
                    value: *v,
                })
                .collect(),
        )
    }

    fn sample_vec() -> Value {
        vs(&[
            (&[("__name__", "m"), ("i", "a"), ("nf", "amf")], 10.0),
            (&[("__name__", "m"), ("i", "b"), ("nf", "amf")], 20.0),
            (&[("__name__", "m"), ("i", "c"), ("nf", "smf")], 40.0),
        ])
    }

    #[test]
    fn sum_all() {
        let v = eval_aggregate(AggOp::Sum, None, sample_vec(), &Grouping::None).unwrap();
        assert_eq!(v.as_scalar_like(), Some(70.0));
        match v {
            Value::Vector(v) => assert!(v[0].labels.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sum_by_nf() {
        let v = eval_aggregate(
            AggOp::Sum,
            None,
            sample_vec(),
            &Grouping::By(vec!["nf".into()]),
        )
        .unwrap();
        match v {
            Value::Vector(v) => {
                assert_eq!(v.len(), 2);
                let amf = v.iter().find(|s| s.labels.get("nf") == Some("amf")).unwrap();
                assert_eq!(amf.value, 30.0);
                let smf = v.iter().find(|s| s.labels.get("nf") == Some("smf")).unwrap();
                assert_eq!(smf.value, 40.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sum_without_instance() {
        let v = eval_aggregate(
            AggOp::Sum,
            None,
            sample_vec(),
            &Grouping::Without(vec!["i".into()]),
        )
        .unwrap();
        match v {
            Value::Vector(v) => {
                assert_eq!(v.len(), 2);
                // __name__ must be dropped by without.
                assert!(v.iter().all(|s| s.labels.name().is_none()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn avg_min_max_count() {
        let avg = eval_aggregate(AggOp::Avg, None, sample_vec(), &Grouping::None).unwrap();
        assert!((avg.as_scalar_like().unwrap() - 70.0 / 3.0).abs() < 1e-9);
        let min = eval_aggregate(AggOp::Min, None, sample_vec(), &Grouping::None).unwrap();
        assert_eq!(min.as_scalar_like(), Some(10.0));
        let max = eval_aggregate(AggOp::Max, None, sample_vec(), &Grouping::None).unwrap();
        assert_eq!(max.as_scalar_like(), Some(40.0));
        let count = eval_aggregate(AggOp::Count, None, sample_vec(), &Grouping::None).unwrap();
        assert_eq!(count.as_scalar_like(), Some(3.0));
        let group = eval_aggregate(AggOp::Group, None, sample_vec(), &Grouping::None).unwrap();
        assert_eq!(group.as_scalar_like(), Some(1.0));
    }

    #[test]
    fn stddev_stdvar() {
        let v = vs(&[(&[("i", "a")], 2.0), (&[("i", "b")], 4.0)]);
        let var = eval_aggregate(AggOp::Stdvar, None, v.clone(), &Grouping::None).unwrap();
        assert_eq!(var.as_scalar_like(), Some(1.0));
        let dev = eval_aggregate(AggOp::Stddev, None, v, &Grouping::None).unwrap();
        assert_eq!(dev.as_scalar_like(), Some(1.0));
    }

    #[test]
    fn topk_keeps_labels_and_sorts() {
        let v = eval_aggregate(
            AggOp::Topk,
            Some(Value::Scalar(2.0)),
            sample_vec(),
            &Grouping::None,
        )
        .unwrap();
        match v {
            Value::Vector(v) => {
                assert_eq!(v.len(), 2);
                // Original labels kept (name included).
                assert!(v.iter().all(|s| s.labels.name() == Some("m")));
                let vals: Vec<f64> = v.iter().map(|s| s.value).collect();
                assert!(vals.contains(&40.0) && vals.contains(&20.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bottomk() {
        let v = eval_aggregate(
            AggOp::Bottomk,
            Some(Value::Scalar(1.0)),
            sample_vec(),
            &Grouping::None,
        )
        .unwrap();
        match v {
            Value::Vector(v) => {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0].value, 10.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantile_interpolates() {
        let v = vs(&[
            (&[("i", "a")], 0.0),
            (&[("i", "b")], 10.0),
            (&[("i", "c")], 20.0),
        ]);
        let q = eval_aggregate(
            AggOp::Quantile,
            Some(Value::Scalar(0.5)),
            v,
            &Grouping::None,
        )
        .unwrap();
        assert_eq!(q.as_scalar_like(), Some(10.0));
    }

    #[test]
    fn count_values_counts_distinct() {
        let v = vs(&[
            (&[("i", "a")], 5.0),
            (&[("i", "b")], 5.0),
            (&[("i", "c")], 7.0),
        ]);
        let out = eval_aggregate(
            AggOp::CountValues,
            Some(Value::Str("v".into())),
            v,
            &Grouping::None,
        )
        .unwrap();
        match out {
            Value::Vector(v) => {
                assert_eq!(v.len(), 2);
                let five = v.iter().find(|s| s.labels.get("v") == Some("5")).unwrap();
                assert_eq!(five.value, 2.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn aggregate_on_scalar_is_error() {
        assert!(eval_aggregate(AggOp::Sum, None, Value::Scalar(1.0), &Grouping::None).is_err());
    }

    #[test]
    fn topk_requires_scalar_param() {
        assert!(eval_aggregate(
            AggOp::Topk,
            Some(Value::Str("x".into())),
            sample_vec(),
            &Grouping::None
        )
        .is_err());
    }

    #[test]
    fn empty_vector_aggregates_to_empty() {
        let out = eval_aggregate(AggOp::Sum, None, Value::Vector(vec![]), &Grouping::None).unwrap();
        assert_eq!(out, Value::Vector(vec![]));
    }

    #[test]
    fn quantile_edge_cases() {
        assert!(quantile(0.5, &[]).is_nan());
        assert_eq!(quantile(-0.1, &[1.0]), f64::NEG_INFINITY);
        assert_eq!(quantile(1.1, &[1.0]), f64::INFINITY);
        assert_eq!(quantile(0.0, &[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(quantile(1.0, &[3.0, 1.0, 2.0]), 3.0);
    }
}
