//! # dio-baselines
//!
//! The comparison systems from the paper's §4.2.1, adapted to operator
//! data exactly as described there:
//!
//! * [`DinSqlBaseline`] — the DIN-SQL decomposed-prompting approach:
//!   the same few-shot exemplars as DIO copilot, but (because the full
//!   schema does not fit the context window) only "approximately 600 of
//!   the metric names, selected in a uniformly random manner", with no
//!   descriptions. Stages: schema linking → few-shot generation →
//!   self-correction.
//! * [`DirectModelBaseline`] — the bare foundation model: the same 600
//!   metric names, **no** few-shot examples.
//!
//! Both run their generated queries through the same sandbox and store
//! as DIO copilot, so execution accuracy is measured identically.
//!
//! The [`NlQuerySystem`] trait is the common surface the benchmark
//! harness evaluates; it is implemented by both baselines and by
//! [`dio_copilot::DioCopilot`].

mod dinsql;
mod direct;
mod interface;
mod schema;

pub use dinsql::DinSqlBaseline;
pub use direct::DirectModelBaseline;
pub use interface::{NlQuerySystem, SystemAnswer};
pub use schema::sample_schema;
