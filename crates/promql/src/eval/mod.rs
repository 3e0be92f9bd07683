//! Expression evaluation.

pub(crate) mod aggregate;
pub(crate) mod binop;
pub(crate) mod functions;
pub(crate) mod kernels;

use crate::ast::Expr;
use crate::error::EvalError;
use crate::value::{RangeSeries, Value, VectorSample};
use dio_tsdb::{Labels, MatchOp, Matcher, MetricStore};
use std::cell::Cell;

/// Evaluation context: the store, the evaluation timestamp, and
/// execution limits (used by the sandbox).
pub(crate) struct Evaluator<'a> {
    /// The metric store queried by selectors.
    pub store: &'a MetricStore,
    /// Instant-vector lookback window in ms.
    pub lookback_ms: i64,
    /// Maximum samples any single query may touch (0 = unlimited).
    pub max_samples: usize,
    samples_visited: Cell<usize>,
}

impl<'a> Evaluator<'a> {
    /// Create an evaluator with the given lookback and sample budget.
    pub(crate) fn new(store: &'a MetricStore, lookback_ms: i64, max_samples: usize) -> Self {
        Evaluator {
            store,
            lookback_ms,
            max_samples,
            samples_visited: Cell::new(0),
        }
    }

    /// An evaluator whose sample counter starts at `visited` — used by
    /// the vectorized executor's interpreter fallback so a shared
    /// budget trips at exactly the same total either way.
    pub(crate) fn with_visited(
        store: &'a MetricStore,
        lookback_ms: i64,
        max_samples: usize,
        visited: usize,
    ) -> Self {
        Evaluator {
            store,
            lookback_ms,
            max_samples,
            samples_visited: Cell::new(visited),
        }
    }

    /// Samples touched so far.
    pub(crate) fn samples_visited(&self) -> usize {
        self.samples_visited.get()
    }

    fn charge(&self, n: usize) -> Result<(), EvalError> {
        let total = self.samples_visited.get() + n;
        self.samples_visited.set(total);
        if self.max_samples > 0 && total > self.max_samples {
            return Err(EvalError::LimitExceeded(format!(
                "query touched {total} samples, limit is {}",
                self.max_samples
            )));
        }
        Ok(())
    }

    /// Evaluate `expr` at timestamp `ts` (ms since epoch).
    pub(crate) fn eval(&self, expr: &Expr, ts: i64) -> Result<Value, EvalError> {
        match expr {
            Expr::NumberLiteral(n) => Ok(Value::Scalar(*n)),
            Expr::StringLiteral(s) => Ok(Value::Str(s.clone())),
            Expr::Paren(e) => self.eval(e, ts),
            Expr::VectorSelector {
                name,
                matchers,
                offset_ms,
            } => self.eval_vector_selector(name.as_deref(), matchers, *offset_ms, ts),
            Expr::MatrixSelector { selector, range_ms } => {
                self.eval_matrix_selector(selector, *range_ms, ts)
            }
            Expr::Subquery {
                expr,
                range_ms,
                step_ms,
                offset_ms,
            } => self.eval_subquery(expr, *range_ms, *step_ms, *offset_ms, ts),
            Expr::Neg(e) => match self.eval(e, ts)? {
                Value::Scalar(v) => Ok(Value::Scalar(-v)),
                Value::Vector(v) => Ok(Value::Vector(
                    v.into_iter()
                        .map(|s| VectorSample {
                            labels: s.labels.drop_name(),
                            value: -s.value,
                        })
                        .collect(),
                )),
                other => Err(EvalError::TypeMismatch(format!(
                    "cannot negate {}",
                    other.type_name()
                ))),
            },
            Expr::Binary {
                op,
                lhs,
                rhs,
                bool_modifier,
                matching,
            } => {
                let l = self.eval(lhs, ts)?;
                let r = self.eval(rhs, ts)?;
                binop::eval_binary(*op, l, r, *bool_modifier, matching)
            }
            Expr::Aggregate {
                op,
                param,
                expr,
                grouping,
            } => {
                let param_val = match param {
                    Some(p) => Some(self.eval(p, ts)?),
                    None => None,
                };
                let inner = self.eval(expr, ts)?;
                aggregate::eval_aggregate(*op, param_val, inner, grouping)
            }
            Expr::Call { func, args } => functions::eval_call(self, func, args, ts),
        }
    }

    /// Build the full matcher list for a selector (adding the implicit
    /// `__name__` equality matcher).
    fn full_matchers(name: Option<&str>, matchers: &[Matcher]) -> Vec<Matcher> {
        let mut all = Vec::with_capacity(matchers.len() + 1);
        if let Some(n) = name {
            all.push(Matcher {
                name: "__name__".to_string(),
                op: MatchOp::Eq,
                value: n.to_string(),
            });
        }
        all.extend(matchers.iter().cloned());
        all
    }

    fn eval_vector_selector(
        &self,
        name: Option<&str>,
        matchers: &[Matcher],
        offset_ms: i64,
        ts: i64,
    ) -> Result<Value, EvalError> {
        let all = Self::full_matchers(name, matchers);
        let at = ts - offset_ms;
        let mut out = Vec::new();
        let cache = self.store.page_cache();
        for series in self.store.select(&all) {
            if let Some(sample) = series.sample_at_cached(at, self.lookback_ms, cache) {
                self.charge(1)?;
                out.push(VectorSample {
                    labels: series.labels().clone(),
                    value: sample.value,
                });
            }
        }
        sort_vector(&mut out);
        Ok(Value::Vector(out))
    }

    fn eval_matrix_selector(
        &self,
        selector: &Expr,
        range_ms: i64,
        ts: i64,
    ) -> Result<Value, EvalError> {
        let (name, matchers, offset_ms) = match selector {
            Expr::VectorSelector {
                name,
                matchers,
                offset_ms,
            } => (name.as_deref(), matchers, *offset_ms),
            _ => {
                return Err(EvalError::TypeMismatch(
                    "range selector requires a vector selector".to_string(),
                ))
            }
        };
        let all = Self::full_matchers(name, matchers);
        let at = ts - offset_ms;
        let mut out = Vec::new();
        let cache = self.store.page_cache();
        for series in self.store.select(&all) {
            let window = series.window_cached(at, range_ms, cache);
            if !window.is_empty() {
                self.charge(window.len())?;
                out.push(RangeSeries {
                    labels: series.labels().clone(),
                    samples: window,
                });
            }
        }
        out.sort_by(|a, b| a.labels.cmp(&b.labels));
        Ok(Value::Matrix(out))
    }
}

/// Default subquery step when `expr[range:]` omits it — Prometheus uses
/// the global evaluation interval; we fix one minute.
pub(crate) const DEFAULT_SUBQUERY_STEP_MS: i64 = 60_000;

impl<'a> Evaluator<'a> {
    /// Evaluate `expr[range:step] offset o`: run the inner instant
    /// expression at aligned steps within `(t - o - range, t - o]` and
    /// assemble per-series sample windows.
    fn eval_subquery(
        &self,
        expr: &Expr,
        range_ms: i64,
        step_ms: Option<i64>,
        offset_ms: i64,
        ts: i64,
    ) -> Result<Value, EvalError> {
        let step = step_ms.unwrap_or(DEFAULT_SUBQUERY_STEP_MS).max(1);
        let end = ts - offset_ms;
        let start = end - range_ms;
        // Prometheus aligns subquery steps to absolute time (multiples
        // of step), evaluating at the first aligned point > start.
        let mut t = (start / step) * step;
        while t <= start {
            t += step;
        }

        let mut series: Vec<RangeSeries> = Vec::new();
        let mut index: std::collections::HashMap<Labels, usize> =
            std::collections::HashMap::new();
        while t <= end {
            let v = self.eval(expr, t)?;
            let points: Vec<(Labels, f64)> = match v {
                Value::Scalar(x) => vec![(Labels::empty(), x)],
                Value::Vector(v) => v.into_iter().map(|s| (s.labels, s.value)).collect(),
                other => {
                    return Err(EvalError::TypeMismatch(format!(
                        "subquery inner expression must be instant vector or scalar, got {}",
                        other.type_name()
                    )))
                }
            };
            for (labels, value) in points {
                self.charge(1)?;
                let idx = match index.get(&labels) {
                    Some(&i) => i,
                    None => {
                        index.insert(labels.clone(), series.len());
                        series.push(RangeSeries {
                            labels,
                            samples: Vec::new(),
                        });
                        series.len() - 1
                    }
                };
                series[idx].samples.push(dio_tsdb::Sample::new(t, value));
            }
            t += step;
        }
        series.sort_by(|a, b| a.labels.cmp(&b.labels));
        Ok(Value::Matrix(series))
    }
}

/// Canonical ordering for instant vectors (by labels), keeping results
/// deterministic across runs.
pub(crate) fn sort_vector(v: &mut [VectorSample]) {
    v.sort_by(|a, b| a.labels.cmp(&b.labels));
}

/// Drop the metric name from every sample (what arithmetic does).
pub(crate) fn drop_names(v: Vec<VectorSample>) -> Vec<VectorSample> {
    v.into_iter()
        .map(|s| VectorSample {
            labels: s.labels.drop_name(),
            value: s.value,
        })
        .collect()
}

/// Build an empty-labels sample vector from a scalar (used by `vector()`).
pub(crate) fn scalar_to_vector(v: f64) -> Vec<VectorSample> {
    vec![VectorSample {
        labels: Labels::empty(),
        value: v,
    }]
}
