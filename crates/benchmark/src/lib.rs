//! # dio-benchmark
//!
//! The operator-specific benchmark (paper §4.1) and the execution-
//! accuracy evaluation harness (§4.2).
//!
//! * `world` — the "synthetic yet representative" evaluation world:
//!   the full 3000+-metric catalog synthesised into a labelled
//!   time-series store (three instances per network function, coupled
//!   attempt/success/failure counters);
//! * `fewshot` — the 20 expert-generated few-shot exemplars ("user
//!   query, corresponding context, relevant metrics and the PromQL
//!   query"); the procedures they use are excluded from the benchmark
//!   ("none of the training questions … are incorporated");
//! * `questions` — the 200 expert-generated questions with reference
//!   metrics, reference PromQL, and the numeric answer obtained by
//!   executing the reference on the world store; spanning retrieval,
//!   averaging, sum and rate, with up to three metrics per expression;
//! * [`eval`] — execution accuracy (EX): "the percentage of times an
//!   approach produced an answer that is numerically matching the
//!   reference answer".

pub mod eval;
mod fewshot;
mod questions;
mod report;
mod world;

pub use eval::{evaluate, evaluate_observed, EvalReport};
pub use fewshot::fewshot_exemplars;
pub use questions::{generate_benchmark, BenchmarkQuestion, Reference};
pub use report::{format_comparison_table, format_shape_breakdown};
pub use world::{OperatorWorld, WorldConfig};
