//! Binary operator evaluation with full vector matching.

use crate::ast::{BinOp, GroupSide, VectorMatching};
use crate::error::EvalError;
use crate::eval::sort_vector;
use crate::value::{Value, VectorSample};
use dio_tsdb::Labels;
use std::collections::HashMap;

/// Evaluate `lhs op rhs`.
pub(crate) fn eval_binary(
    op: BinOp,
    lhs: Value,
    rhs: Value,
    bool_modifier: bool,
    matching: &VectorMatching,
) -> Result<Value, EvalError> {
    if op.is_set_op() {
        return eval_set_op(op, lhs, rhs, matching);
    }
    match (lhs, rhs) {
        (Value::Scalar(l), Value::Scalar(r)) => {
            if op.is_comparison() && !bool_modifier {
                return Err(EvalError::TypeMismatch(
                    "comparisons between scalars must use the bool modifier".to_string(),
                ));
            }
            Ok(Value::Scalar(if op.is_comparison() {
                bool_to_f64(compare(op, l, r))
            } else {
                arith(op, l, r)
            }))
        }
        (Value::Vector(v), Value::Scalar(s)) => {
            Ok(Value::Vector(vector_scalar(op, v, s, bool_modifier, false)))
        }
        (Value::Scalar(s), Value::Vector(v)) => {
            Ok(Value::Vector(vector_scalar(op, v, s, bool_modifier, true)))
        }
        (Value::Vector(l), Value::Vector(r)) => {
            eval_vector_vector(op, l, r, bool_modifier, matching)
        }
        (l, r) => Err(EvalError::TypeMismatch(format!(
            "binary operator {} not defined between {} and {}",
            op.as_str(),
            l.type_name(),
            r.type_name()
        ))),
    }
}

fn arith(op: BinOp, l: f64, r: f64) -> f64 {
    match op {
        BinOp::Add => l + r,
        BinOp::Sub => l - r,
        BinOp::Mul => l * r,
        BinOp::Div => l / r, // IEEE: x/0 = ±inf, 0/0 = NaN, as in Prometheus
        // Prometheus uses Go's math.Mod (sign of dividend).
        BinOp::Mod => l % r,
        BinOp::Pow => l.powf(r),
        _ => unreachable!("comparison handled separately"),
    }
}

fn compare(op: BinOp, l: f64, r: f64) -> bool {
    match op {
        BinOp::Eq => l == r,
        BinOp::Ne => l != r,
        BinOp::Gt => l > r,
        BinOp::Lt => l < r,
        BinOp::Gte => l >= r,
        BinOp::Lte => l <= r,
        _ => unreachable!("arith handled separately"),
    }
}

fn bool_to_f64(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// Vector ⊕ scalar (or scalar ⊕ vector when `swapped`).
fn vector_scalar(
    op: BinOp,
    v: Vec<VectorSample>,
    s: f64,
    bool_modifier: bool,
    swapped: bool,
) -> Vec<VectorSample> {
    let mut out = Vec::with_capacity(v.len());
    for sample in v {
        let (l, r) = if swapped {
            (s, sample.value)
        } else {
            (sample.value, s)
        };
        if op.is_comparison() {
            let keep = compare(op, l, r);
            if bool_modifier {
                out.push(VectorSample {
                    labels: sample.labels.drop_name(),
                    value: bool_to_f64(keep),
                });
            } else if keep {
                out.push(sample);
            }
        } else {
            out.push(VectorSample {
                labels: sample.labels.drop_name(),
                value: arith(op, l, r),
            });
        }
    }
    sort_vector(&mut out);
    out
}

/// The match signature of a sample under on/ignoring.
fn signature(labels: &Labels, matching: &VectorMatching) -> Labels {
    match matching.on {
        Some(true) => {
            let names: Vec<&str> = matching.labels.iter().map(|s| s.as_str()).collect();
            labels.keep_only(&names)
        }
        Some(false) => {
            let names: Vec<&str> = matching.labels.iter().map(|s| s.as_str()).collect();
            labels.drop_listed_and_name(&names)
        }
        None => labels.drop_name(),
    }
}

fn eval_vector_vector(
    op: BinOp,
    lhs: Vec<VectorSample>,
    rhs: Vec<VectorSample>,
    bool_modifier: bool,
    matching: &VectorMatching,
) -> Result<Value, EvalError> {
    // The "one" side is indexed by signature; the "many" side iterates.
    let (many, one, many_is_left) = match matching.group {
        Some((GroupSide::Left, _)) => (lhs, rhs, true),
        Some((GroupSide::Right, _)) => (rhs, lhs, false),
        None => (lhs, rhs, true),
    };

    let mut one_index: HashMap<Labels, &VectorSample> = HashMap::new();
    for s in &one {
        let sig = signature(&s.labels, matching);
        if one_index.insert(sig.clone(), s).is_some() {
            return Err(EvalError::VectorMatch(format!(
                "many-to-many matching not allowed: duplicate signature {sig} on the {} side",
                if many_is_left { "right" } else { "left" }
            )));
        }
    }

    // Without group_*, each signature on the many side must also be
    // unique (one-to-one).
    if matching.group.is_none() {
        let mut seen: HashMap<Labels, ()> = HashMap::new();
        for s in &many {
            let sig = signature(&s.labels, matching);
            if seen.insert(sig.clone(), ()).is_some() {
                return Err(EvalError::VectorMatch(format!(
                    "many-to-many matching not allowed: duplicate signature {sig} on the left side"
                )));
            }
        }
    }

    let extra_labels: &[String] = match &matching.group {
        Some((_, extra)) => extra.as_slice(),
        None => &[],
    };

    let mut out = Vec::new();
    for m in &many {
        let sig = signature(&m.labels, matching);
        let Some(o) = one_index.get(&sig) else {
            continue;
        };
        let (l, r) = if many_is_left {
            (m.value, o.value)
        } else {
            (o.value, m.value)
        };
        if op.is_comparison() {
            let keep = compare(op, l, r);
            if bool_modifier {
                out.push(VectorSample {
                    labels: m.labels.drop_name(),
                    value: bool_to_f64(keep),
                });
            } else if keep {
                // Filter comparisons keep the *left*-hand sample.
                let kept = if many_is_left { m } else { *o };
                out.push(kept.clone());
            }
        } else {
            // Result labels: the many side's signature-relevant labels
            // (name dropped), plus any group_* extra labels copied from
            // the one side.
            let mut labels = m.labels.drop_name();
            for extra in extra_labels {
                if let Some(v) = o.labels.get(extra) {
                    labels = labels.with(extra.clone(), v.to_string());
                } else {
                    labels = labels.without(extra);
                }
            }
            out.push(VectorSample {
                labels,
                value: arith(op, l, r),
            });
        }
    }
    sort_vector(&mut out);
    Ok(Value::Vector(out))
}

fn eval_set_op(
    op: BinOp,
    lhs: Value,
    rhs: Value,
    matching: &VectorMatching,
) -> Result<Value, EvalError> {
    let (l, r) = match (lhs, rhs) {
        (Value::Vector(l), Value::Vector(r)) => (l, r),
        (l, r) => {
            return Err(EvalError::TypeMismatch(format!(
                "set operator {} requires instant vectors, got {} and {}",
                op.as_str(),
                l.type_name(),
                r.type_name()
            )))
        }
    };
    let rhs_sigs: std::collections::HashSet<Labels> = r
        .iter()
        .map(|s| signature(&s.labels, matching))
        .collect();
    let mut out: Vec<VectorSample> = match op {
        BinOp::And => l
            .into_iter()
            .filter(|s| rhs_sigs.contains(&signature(&s.labels, matching)))
            .collect(),
        BinOp::Unless => l
            .into_iter()
            .filter(|s| !rhs_sigs.contains(&signature(&s.labels, matching)))
            .collect(),
        BinOp::Or => {
            let lhs_sigs: std::collections::HashSet<Labels> = l
                .iter()
                .map(|s| signature(&s.labels, matching))
                .collect();
            let mut v = l;
            v.extend(
                r.into_iter()
                    .filter(|s| !lhs_sigs.contains(&signature(&s.labels, matching))),
            );
            v
        }
        _ => unreachable!(),
    };
    sort_vector(&mut out);
    Ok(Value::Vector(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(pairs: &[(&[(&str, &str)], f64)]) -> Vec<VectorSample> {
        pairs
            .iter()
            .map(|(ls, v)| VectorSample {
                labels: Labels::from_pairs(ls.iter().map(|(a, b)| (*a, *b))),
                value: *v,
            })
            .collect()
    }

    fn no_match() -> VectorMatching {
        VectorMatching::default()
    }

    #[test]
    fn scalar_scalar_arith() {
        let v = eval_binary(
            BinOp::Add,
            Value::Scalar(2.0),
            Value::Scalar(3.0),
            false,
            &no_match(),
        )
        .unwrap();
        assert_eq!(v, Value::Scalar(5.0));
    }

    #[test]
    fn scalar_comparison_requires_bool() {
        assert!(eval_binary(
            BinOp::Gt,
            Value::Scalar(2.0),
            Value::Scalar(1.0),
            false,
            &no_match()
        )
        .is_err());
        let v = eval_binary(
            BinOp::Gt,
            Value::Scalar(2.0),
            Value::Scalar(1.0),
            true,
            &no_match(),
        )
        .unwrap();
        assert_eq!(v, Value::Scalar(1.0));
    }

    #[test]
    fn vector_scalar_arithmetic_drops_name() {
        let v = vs(&[(&[("__name__", "m"), ("i", "a")], 10.0)]);
        let out = eval_binary(
            BinOp::Mul,
            Value::Vector(v),
            Value::Scalar(2.0),
            false,
            &no_match(),
        )
        .unwrap();
        match out {
            Value::Vector(v) => {
                assert_eq!(v[0].value, 20.0);
                assert_eq!(v[0].labels.name(), None);
                assert_eq!(v[0].labels.get("i"), Some("a"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scalar_vector_subtraction_order() {
        let v = vs(&[(&[("i", "a")], 10.0)]);
        let out = eval_binary(
            BinOp::Sub,
            Value::Scalar(100.0),
            Value::Vector(v),
            false,
            &no_match(),
        )
        .unwrap();
        assert_eq!(out.as_scalar_like(), Some(90.0));
    }

    #[test]
    fn vector_comparison_filters() {
        let v = vs(&[(&[("i", "a")], 1.0), (&[("i", "b")], 10.0)]);
        let out = eval_binary(
            BinOp::Gt,
            Value::Vector(v),
            Value::Scalar(5.0),
            false,
            &no_match(),
        )
        .unwrap();
        match out {
            Value::Vector(v) => {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0].labels.get("i"), Some("b"));
                assert_eq!(v[0].value, 10.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn vector_comparison_bool_keeps_all() {
        let v = vs(&[(&[("i", "a")], 1.0), (&[("i", "b")], 10.0)]);
        let out = eval_binary(
            BinOp::Gt,
            Value::Vector(v),
            Value::Scalar(5.0),
            true,
            &no_match(),
        )
        .unwrap();
        match out {
            Value::Vector(v) => {
                assert_eq!(v.len(), 2);
                assert_eq!(v[0].value, 0.0);
                assert_eq!(v[1].value, 1.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn one_to_one_matches_on_identical_labels() {
        let l = vs(&[
            (&[("__name__", "success"), ("i", "a")], 90.0),
            (&[("__name__", "success"), ("i", "b")], 80.0),
        ]);
        let r = vs(&[
            (&[("__name__", "attempt"), ("i", "a")], 100.0),
            (&[("__name__", "attempt"), ("i", "b")], 100.0),
        ]);
        let out = eval_binary(
            BinOp::Div,
            Value::Vector(l),
            Value::Vector(r),
            false,
            &no_match(),
        )
        .unwrap();
        match out {
            Value::Vector(v) => {
                assert_eq!(v.len(), 2);
                assert_eq!(v[0].value, 0.9);
                assert_eq!(v[1].value, 0.8);
                assert_eq!(v[0].labels.name(), None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unmatched_samples_drop_out() {
        let l = vs(&[(&[("i", "a")], 1.0), (&[("i", "b")], 2.0)]);
        let r = vs(&[(&[("i", "a")], 10.0)]);
        let out = eval_binary(
            BinOp::Add,
            Value::Vector(l),
            Value::Vector(r),
            false,
            &no_match(),
        )
        .unwrap();
        match out {
            Value::Vector(v) => {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0].value, 11.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn many_to_many_is_error() {
        let l = vs(&[
            (&[("i", "a"), ("c", "x")], 1.0),
            (&[("i", "a"), ("c", "y")], 2.0),
        ]);
        let r = vs(&[(&[("i", "a")], 10.0)]);
        let matching = VectorMatching {
            on: Some(true),
            labels: vec!["i".into()],
            group: None,
        };
        assert!(matches!(
            eval_binary(
                BinOp::Add,
                Value::Vector(l),
                Value::Vector(r),
                false,
                &matching
            ),
            Err(EvalError::VectorMatch(_))
        ));
    }

    #[test]
    fn group_left_allows_many_to_one() {
        let l = vs(&[
            (&[("i", "a"), ("c", "x")], 1.0),
            (&[("i", "a"), ("c", "y")], 2.0),
        ]);
        let r = vs(&[(&[("i", "a"), ("nf", "amf")], 10.0)]);
        let matching = VectorMatching {
            on: Some(true),
            labels: vec!["i".into()],
            group: Some((GroupSide::Left, vec!["nf".into()])),
        };
        let out = eval_binary(
            BinOp::Div,
            Value::Vector(l),
            Value::Vector(r),
            false,
            &matching,
        )
        .unwrap();
        match out {
            Value::Vector(v) => {
                assert_eq!(v.len(), 2);
                assert_eq!(v[0].value, 0.1);
                assert_eq!(v[1].value, 0.2);
                // group_left extra label copied from the one side.
                assert_eq!(v[0].labels.get("nf"), Some("amf"));
                // many-side labels preserved.
                assert!(v.iter().any(|s| s.labels.get("c") == Some("x")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ignoring_drops_label_from_signature() {
        let l = vs(&[(&[("i", "a"), ("cause", "timeout")], 5.0)]);
        let r = vs(&[(&[("i", "a")], 50.0)]);
        let matching = VectorMatching {
            on: Some(false),
            labels: vec!["cause".into()],
            group: None,
        };
        let out = eval_binary(
            BinOp::Div,
            Value::Vector(l),
            Value::Vector(r),
            false,
            &matching,
        )
        .unwrap();
        assert_eq!(out.as_scalar_like(), Some(0.1));
    }

    #[test]
    fn and_or_unless_semantics() {
        let l = vs(&[(&[("i", "a")], 1.0), (&[("i", "b")], 2.0)]);
        let r = vs(&[(&[("i", "b")], 9.0), (&[("i", "c")], 9.0)]);
        let and = eval_binary(
            BinOp::And,
            Value::Vector(l.clone()),
            Value::Vector(r.clone()),
            false,
            &no_match(),
        )
        .unwrap();
        match and {
            Value::Vector(v) => {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0].labels.get("i"), Some("b"));
                assert_eq!(v[0].value, 2.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        let or = eval_binary(
            BinOp::Or,
            Value::Vector(l.clone()),
            Value::Vector(r.clone()),
            false,
            &no_match(),
        )
        .unwrap();
        match or {
            Value::Vector(v) => assert_eq!(v.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
        let unless = eval_binary(
            BinOp::Unless,
            Value::Vector(l),
            Value::Vector(r),
            false,
            &no_match(),
        )
        .unwrap();
        match unless {
            Value::Vector(v) => {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0].labels.get("i"), Some("a"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn division_by_zero_follows_ieee() {
        let out = eval_binary(
            BinOp::Div,
            Value::Scalar(1.0),
            Value::Scalar(0.0),
            false,
            &no_match(),
        )
        .unwrap();
        assert_eq!(out, Value::Scalar(f64::INFINITY));
    }

    #[test]
    fn matrix_operand_is_type_error() {
        assert!(eval_binary(
            BinOp::Add,
            Value::Matrix(vec![]),
            Value::Scalar(1.0),
            false,
            &no_match()
        )
        .is_err());
    }
}
