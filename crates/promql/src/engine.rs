//! The query engine: parse + evaluate against a [`MetricStore`].

use crate::ast::Expr;
use crate::error::EvalError;
use crate::eval::Evaluator;
use crate::exec::ExecCtx;
use crate::parser::parse;
use crate::plan;
use crate::value::Value;
use dio_tsdb::{Labels, MetricStore, Sample, DEFAULT_LOOKBACK_MS};
use serde::{Deserialize, Serialize};

/// Which evaluation engine runs a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExecutorKind {
    /// Plan the AST into batch operators and execute over decoded
    /// column batches (the default; scans are memoised across range
    /// steps).
    #[default]
    Vectorized,
    /// Walk the AST per step. Kept as the differential-testing oracle;
    /// results are byte-identical to the vectorized engine.
    Interpreter,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineOptions {
    /// Instant-selector lookback window (ms).
    pub lookback_ms: i64,
    /// Per-query sample budget (0 = unlimited). The sandbox sets this.
    pub max_samples: usize,
    /// Maximum steps a range query may evaluate.
    pub max_range_steps: usize,
    /// Evaluation engine (vectorized unless overridden).
    #[serde(default)]
    pub executor: ExecutorKind,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            lookback_ms: DEFAULT_LOOKBACK_MS,
            max_samples: 0,
            max_range_steps: 11_000,
            executor: ExecutorKind::Vectorized,
        }
    }
}

/// Statistics about an executed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QueryStats {
    /// Samples touched during evaluation.
    pub samples_visited: usize,
}

/// One series of a range-query result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RangeResult {
    /// Series identity.
    pub labels: Labels,
    /// One point per evaluation step.
    pub points: Vec<Sample>,
}

/// A PromQL query engine bound to a store.
///
/// The store rides behind an [`Arc`] so many engines — one per serving
/// worker — can evaluate concurrently over one handle. The single
/// resident copy of the data does not depend on that handle:
/// [`MetricStore`] clones already share their series. Evaluation is
/// read-only (`&self`); mutation for ingestion goes through
/// [`Engine::store_mut`].
#[derive(Debug, Clone)]
pub struct Engine {
    store: std::sync::Arc<MetricStore>,
    options: EngineOptions,
}

impl Engine {
    /// Engine with default options.
    pub fn new(store: MetricStore) -> Self {
        Engine {
            store: std::sync::Arc::new(store),
            options: EngineOptions::default(),
        }
    }

    /// Engine with explicit options.
    pub fn with_options(store: MetricStore, options: EngineOptions) -> Self {
        Engine {
            store: std::sync::Arc::new(store),
            options,
        }
    }

    /// Engine over an already-shared store (no copy): the concurrent
    /// serving path, where every worker reads the same resident tsdb.
    pub fn with_options_shared(store: std::sync::Arc<MetricStore>, options: EngineOptions) -> Self {
        Engine { store, options }
    }

    /// The underlying store.
    pub fn store(&self) -> &MetricStore {
        &self.store
    }

    /// The shared handle to the store (cheap clone; no data copy).
    pub fn store_arc(&self) -> std::sync::Arc<MetricStore> {
        std::sync::Arc::clone(&self.store)
    }

    /// Mutable access to the store (for ingestion). If other engines
    /// share the handle, this engine takes its own store clone first,
    /// which costs two `Arc` bumps; the series themselves split off
    /// only when the first write reaches them (see [`MetricStore`]).
    pub fn store_mut(&mut self) -> &mut MetricStore {
        std::sync::Arc::make_mut(&mut self.store)
    }

    /// The configured options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Parse and evaluate at a single timestamp.
    pub fn instant_query(&self, query: &str, ts: i64) -> Result<Value, EvalError> {
        let expr = parse(query).map_err(|e| EvalError::Other(e.to_string()))?;
        self.instant_query_expr(&expr, ts).map(|(v, _)| v)
    }

    /// Evaluate a pre-parsed expression, returning stats too.
    pub fn instant_query_expr(
        &self,
        expr: &Expr,
        ts: i64,
    ) -> Result<(Value, QueryStats), EvalError> {
        match self.options.executor {
            ExecutorKind::Vectorized => {
                let plan = plan::plan(expr);
                let ctx = ExecCtx::new(
                    &self.store,
                    &plan,
                    self.options.lookback_ms,
                    self.options.max_samples,
                );
                let value = ctx.eval(ts)?;
                Ok((
                    value,
                    QueryStats {
                        samples_visited: ctx.samples_visited(),
                    },
                ))
            }
            ExecutorKind::Interpreter => {
                let ev =
                    Evaluator::new(&self.store, self.options.lookback_ms, self.options.max_samples);
                let value = ev.eval(expr, ts)?;
                Ok((
                    value,
                    QueryStats {
                        samples_visited: ev.samples_visited(),
                    },
                ))
            }
        }
    }

    /// Evaluate over `[start, end]` at `step` intervals — Prometheus
    /// range queries, used for dashboard panels. The expression must
    /// produce scalars or instant vectors per step.
    pub fn range_query(
        &self,
        query: &str,
        start: i64,
        end: i64,
        step_ms: i64,
    ) -> Result<Vec<RangeResult>, EvalError> {
        if step_ms <= 0 {
            return Err(EvalError::BadArguments("step must be positive".to_string()));
        }
        if end < start {
            return Err(EvalError::BadArguments(
                "range end before start".to_string(),
            ));
        }
        let steps = ((end - start) / step_ms) as usize + 1;
        if steps > self.options.max_range_steps {
            return Err(EvalError::LimitExceeded(format!(
                "range query would evaluate {steps} steps, limit is {}",
                self.options.max_range_steps
            )));
        }
        let expr = parse(query).map_err(|e| EvalError::Other(e.to_string()))?;

        // Plan once; the execution context memoises selector scans, so
        // every series is matched and decoded a single time no matter
        // how many steps follow.
        let compiled = match self.options.executor {
            ExecutorKind::Vectorized => Some(plan::plan(&expr)),
            ExecutorKind::Interpreter => None,
        };
        let ctx = compiled.as_ref().map(|p| {
            ExecCtx::new(
                &self.store,
                p,
                self.options.lookback_ms,
                self.options.max_samples,
            )
        });

        // Selector, fused-kernel and plain-aggregation roots (every
        // time-series panel a dashboard generates) evaluate whole-range:
        // grouped once, points accumulated per output series directly.
        if let Some(ctx) = &ctx {
            let grid = crate::exec::StepGrid {
                start,
                steps,
                step_ms,
            };
            if let Some(result) = ctx.eval_range(grid) {
                return result;
            }
        }

        let mut series: Vec<RangeResult> = Vec::new();
        let mut index: std::collections::HashMap<Labels, usize> = std::collections::HashMap::new();
        for k in 0..steps {
            let ts = start + k as i64 * step_ms;
            let value = match &ctx {
                Some(ctx) => {
                    // The sample budget is per step, as with the
                    // interpreter's per-step evaluators.
                    ctx.reset_samples();
                    ctx.eval(ts)?
                }
                None => self.instant_query_expr(&expr, ts)?.0,
            };
            let samples: Vec<(Labels, f64)> = match value {
                Value::Scalar(v) => vec![(Labels::empty(), v)],
                Value::Vector(v) => v.into_iter().map(|s| (s.labels, s.value)).collect(),
                other => {
                    return Err(EvalError::TypeMismatch(format!(
                        "range query steps must produce scalars or instant vectors, got {}",
                        other.type_name()
                    )))
                }
            };
            for (labels, v) in samples {
                // A label set carries its signature, so this lookup
                // reads strings only to tell apart equal signatures in
                // different allocations (the interpreter mints fresh
                // sets every step); clones of one allocation, which the
                // executor passes through from the store, match by
                // pointer.
                let idx = *index.entry(labels).or_insert_with_key(|labels| {
                    series.push(RangeResult {
                        labels: labels.clone(),
                        points: Vec::new(),
                    });
                    series.len() - 1
                });
                series[idx].points.push(Sample::new(ts, v));
            }
        }
        series.sort_by(|a, b| a.labels.cmp(&b.labels));
        Ok(series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        let mut store = MetricStore::new();
        for inst in ["amf-0", "amf-1"] {
            let attempt = Labels::from_pairs([
                ("__name__", "reg_attempt"),
                ("instance", inst),
            ]);
            let success = Labels::from_pairs([
                ("__name__", "reg_success"),
                ("instance", inst),
            ]);
            for k in 0..=10i64 {
                store
                    .append(attempt.clone(), Sample::new(k * 60_000, (k * 100) as f64))
                    .unwrap();
                store
                    .append(success.clone(), Sample::new(k * 60_000, (k * 90) as f64))
                    .unwrap();
            }
        }
        Engine::new(store)
    }

    #[test]
    fn instant_query_end_to_end() {
        let e = engine();
        let v = e.instant_query("sum(reg_attempt)", 600_000).unwrap();
        assert_eq!(v.as_scalar_like(), Some(2000.0));
    }

    #[test]
    fn success_rate_expression() {
        let e = engine();
        let v = e
            .instant_query("100 * sum(reg_success) / sum(reg_attempt)", 600_000)
            .unwrap();
        assert!((v.as_scalar_like().unwrap() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn rate_query() {
        let e = engine();
        let v = e
            .instant_query("sum(rate(reg_attempt[5m]))", 600_000)
            .unwrap();
        // each instance grows 100/min = 5/3 per sec; two instances.
        assert!((v.as_scalar_like().unwrap() - 2.0 * 100.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn parse_error_reported() {
        let e = engine();
        let err = e.instant_query("sum(", 0).unwrap_err();
        assert!(err.to_string().contains("parse error"));
    }

    #[test]
    fn stats_count_samples() {
        let e = engine();
        let expr = parse("sum(reg_attempt)").unwrap();
        let (_, stats) = e.instant_query_expr(&expr, 600_000).unwrap();
        assert_eq!(stats.samples_visited, 2);
    }

    #[test]
    fn sample_limit_enforced() {
        let mut e = engine();
        e.options.max_samples = 5;
        let err = e
            .instant_query("sum(rate(reg_attempt[10m]))", 600_000)
            .unwrap_err();
        assert!(matches!(err, EvalError::LimitExceeded(_)));
    }

    #[test]
    fn range_query_produces_series_per_instance() {
        let e = engine();
        let res = e
            .range_query("reg_attempt", 0, 300_000, 60_000)
            .unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].points.len(), 6);
        assert_eq!(res[0].points[5].value, 500.0);
    }

    #[test]
    fn range_query_limits_steps() {
        let mut e = engine();
        e.options.max_range_steps = 3;
        assert!(matches!(
            e.range_query("reg_attempt", 0, 600_000, 60_000),
            Err(EvalError::LimitExceeded(_))
        ));
    }

    #[test]
    fn range_query_validates_args() {
        let e = engine();
        assert!(e.range_query("m", 100, 0, 60_000).is_err());
        assert!(e.range_query("m", 0, 100, 0).is_err());
    }

    #[test]
    fn subquery_feeds_over_time_functions() {
        let e = engine();
        // max over the last 10 minutes of the 5m-rate: the counter grows
        // 100/min/instance, so the rate is constant at 200/60 ≈ 3.333.
        let v = e
            .instant_query("max_over_time(sum(rate(reg_attempt[5m]))[10m:1m])", 600_000)
            .unwrap();
        let x = v.as_scalar_like().expect("scalar-like");
        assert!((x - 200.0 / 60.0).abs() < 1e-9, "got {x}");
        // Default-step subquery works too.
        let v = e
            .instant_query("avg_over_time(sum(reg_attempt)[5m:])", 600_000)
            .unwrap();
        // Steps at 360..600s: values 1200,1400,1600,1800,2000 → mean 1600.
        assert_eq!(v.as_scalar_like(), Some(1600.0));
    }

    #[test]
    fn subquery_respects_offset() {
        let e = engine();
        let now = e
            .instant_query("max_over_time(sum(reg_attempt)[5m:1m])", 600_000)
            .unwrap()
            .as_scalar_like()
            .unwrap();
        let past = e
            .instant_query("max_over_time(sum(reg_attempt)[5m:1m] offset 5m)", 600_000)
            .unwrap()
            .as_scalar_like()
            .unwrap();
        assert!(past < now, "offset window must see older data: {past} vs {now}");
    }

    #[test]
    fn time_functions_decompose_civil_time() {
        let e = engine();
        // 2023-11-01T06:30:00Z = 1698820200s. It was a Wednesday (3).
        let ts = 1_698_820_200_000i64;
        for (q, expected) in [
            ("hour()", 6.0),
            ("minute()", 30.0),
            ("day_of_week()", 3.0),
            ("day_of_month()", 1.0),
            ("month()", 11.0),
            ("year()", 2023.0),
            ("days_in_month()", 30.0),
            ("day_of_year()", 305.0),
        ] {
            let v = e.instant_query(q, ts).unwrap();
            assert_eq!(v.as_scalar_like(), Some(expected), "{q}");
        }
        // Leap-year February.
        let feb2024 = 1_709_164_800_000i64; // 2024-02-29T00:00:00Z
        assert_eq!(
            e.instant_query("days_in_month()", feb2024)
                .unwrap()
                .as_scalar_like(),
            Some(29.0)
        );
        assert_eq!(
            e.instant_query("day_of_month()", feb2024)
                .unwrap()
                .as_scalar_like(),
            Some(29.0)
        );
    }

    #[test]
    fn engines_over_a_store_and_its_clone_agree_until_one_ingests() {
        let original = engine();
        let mut ingesting = Engine::new(original.store().clone());
        assert!(std::ptr::eq(
            original.store().series_at(0),
            ingesting.store().series_at(0)
        ));
        let render = |e: &Engine, ts: i64| {
            let instant = ["sum(reg_attempt)", "reg_success / reg_attempt"]
                .map(|q| format!("{:?}", e.instant_query(q, ts)));
            let range = format!("{:?}", e.range_query("reg_attempt", 0, ts, 60_000));
            (instant, range)
        };
        let before = render(&original, 600_000);
        assert_eq!(render(&ingesting, 600_000), before);

        let labels = Labels::from_pairs([("__name__", "reg_attempt"), ("instance", "amf-0")]);
        ingesting
            .store_mut()
            .append(labels, Sample::new(660_000, 1_100.0))
            .unwrap();
        assert_eq!(render(&original, 600_000), before);
        assert_eq!(render(&ingesting, 600_000), before);
        assert_ne!(render(&original, 660_000), render(&ingesting, 660_000));
        assert_eq!(
            original.store().sample_count() + 1,
            ingesting.store().sample_count()
        );
        assert!(!std::ptr::eq(
            original.store().series_at(0),
            ingesting.store().series_at(0)
        ));
    }

    #[test]
    fn vector_matching_by_instance() {
        let e = engine();
        let v = e
            .instant_query("reg_success / reg_attempt", 600_000)
            .unwrap();
        match v {
            Value::Vector(v) => {
                assert_eq!(v.len(), 2);
                for s in v {
                    assert!((s.value - 0.9).abs() < 1e-9);
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
