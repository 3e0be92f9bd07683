//! # dio-promql
//!
//! A PromQL implementation: lexer, parser, AST, formatter, and an
//! evaluation engine over [`dio_tsdb::MetricStore`].
//!
//! The paper's copilot generates **PromQL** ("The PromQL language is
//! chosen as it is popular with operator deployments", §4) and measures
//! *execution accuracy* by running generated queries against a metrics
//! database. Prometheus itself is a Go system, so this crate implements
//! the language natively. Supported surface (everything the generated,
//! reference, and few-shot queries use, plus standard PromQL breadth):
//!
//! * instant and range vector selectors with label matchers and offsets;
//! * arithmetic and comparison binary operators with full vector
//!   matching (`on`/`ignoring`, `group_left`/`group_right`, `bool`);
//! * logical set operators `and`/`or`/`unless`;
//! * aggregations `sum avg min max count group stddev stdvar topk
//!   bottomk quantile count_values` with `by`/`without`;
//! * range functions `rate irate increase delta idelta resets changes
//!   *_over_time deriv predict_linear`;
//! * instant functions `abs ceil floor round exp ln log2 log10 sqrt sgn
//!   clamp clamp_min clamp_max scalar vector time timestamp sort
//!   sort_desc absent label_replace label_join histogram_quantile`.
//!
//! Divergences from Prometheus are deliberate and documented:
//! `rate`/`increase` use simple first-to-last extrapolation-free
//! computation (both the generated and reference queries run through
//! this same engine, so execution-accuracy comparisons are exact), and
//! regex matchers support the anchored subset described in
//! [`dio_tsdb::pattern_match`].
//!
//! ```
//! use dio_promql::{parse, Engine};
//! use dio_tsdb::{Labels, MetricStore, Sample};
//!
//! let mut store = MetricStore::new();
//! for (t, v) in [(0, 0.0), (60_000, 60.0), (120_000, 120.0)] {
//!     store.append(Labels::name_only("reqs_total"), Sample::new(t, v)).unwrap();
//! }
//! let engine = Engine::new(store);
//! let value = engine.instant_query("sum(rate(reqs_total[2m]))", 120_000).unwrap();
//! assert_eq!(value.as_scalar_like(), Some(1.0)); // 1 request/second
//! ```

mod ast;
mod batch;
mod engine;
mod error;
mod exec;
mod explain;
mod eval;
mod lexer;
mod parser;
mod plan;
mod printer;
mod value;

pub use ast::Expr;
pub use engine::{Engine, EngineOptions, ExecutorKind, QueryStats, RangeResult};
pub use error::{EvalError, ParseError};
pub use explain::explain_parsed;
pub use parser::parse;
pub use printer::format_expr;
pub use value::Value;
