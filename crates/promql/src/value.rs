//! Query result value types.

use dio_tsdb::{Labels, Sample};
use serde::{Deserialize, Serialize};

/// One labelled point of an instant vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VectorSample {
    /// Series identity.
    pub labels: Labels,
    /// Value at the evaluation timestamp.
    pub value: f64,
}

/// An instant vector: zero or more labelled values at one timestamp.
pub(crate) type InstantVector = Vec<VectorSample>;

/// One labelled series of a range vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RangeSeries {
    /// Series identity.
    pub labels: Labels,
    /// Samples inside the window.
    pub samples: Vec<Sample>,
}

/// A range vector: per-series windows of raw samples.
pub(crate) type RangeVector = Vec<RangeSeries>;

/// The result of evaluating an expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// A scalar number.
    Scalar(f64),
    /// A string (only produced by string literals).
    Str(String),
    /// An instant vector.
    Vector(InstantVector),
    /// A range vector (matrix).
    Matrix(RangeVector),
}

impl Value {
    /// Type name used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Scalar(_) => "scalar",
            Value::Str(_) => "string",
            Value::Vector(_) => "instant vector",
            Value::Matrix(_) => "range vector",
        }
    }

    /// Interpret the value as a single number, the way execution
    /// accuracy compares answers: a scalar directly, or a vector with
    /// exactly one sample. `None` for empty/multi-sample vectors,
    /// strings, and matrices.
    pub fn as_scalar_like(&self) -> Option<f64> {
        match self {
            Value::Scalar(v) => Some(*v),
            Value::Vector(v) if v.len() == 1 => Some(v[0].value),
            _ => None,
        }
    }

    /// All numeric values, sorted, used for multi-sample comparisons.
    pub fn numeric_values(&self) -> Vec<f64> {
        let mut vals = match self {
            Value::Scalar(v) => vec![*v],
            Value::Vector(v) => v.iter().map(|s| s.value).collect(),
            Value::Matrix(m) => m
                .iter()
                .flat_map(|s| s.samples.iter().map(|p| p.value))
                .collect(),
            Value::Str(_) => Vec::new(),
        };
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_like_conversions() {
        assert_eq!(Value::Scalar(2.0).as_scalar_like(), Some(2.0));
        let one = Value::Vector(vec![VectorSample {
            labels: Labels::empty(),
            value: 7.0,
        }]);
        assert_eq!(one.as_scalar_like(), Some(7.0));
        let two = Value::Vector(vec![
            VectorSample {
                labels: Labels::empty(),
                value: 1.0,
            },
            VectorSample {
                labels: Labels::from_pairs([("a", "b")]),
                value: 2.0,
            },
        ]);
        assert_eq!(two.as_scalar_like(), None);
        assert_eq!(Value::Vector(vec![]).as_scalar_like(), None);
        assert_eq!(Value::Str("x".into()).as_scalar_like(), None);
    }

    #[test]
    fn numeric_values_sorted() {
        let v = Value::Vector(vec![
            VectorSample {
                labels: Labels::empty(),
                value: 3.0,
            },
            VectorSample {
                labels: Labels::from_pairs([("a", "b")]),
                value: 1.0,
            },
        ]);
        assert_eq!(v.numeric_values(), vec![1.0, 3.0]);
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::Scalar(1.0).type_name(), "scalar");
        assert_eq!(Value::Vector(vec![]).type_name(), "instant vector");
        assert_eq!(Value::Matrix(vec![]).type_name(), "range vector");
        assert_eq!(Value::Str("s".into()).type_name(), "string");
    }
}
