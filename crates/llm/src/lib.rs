//! # dio-llm
//!
//! Foundation-model substrate: token accounting, prompt construction,
//! pricing, and a family of **deterministic simulated foundation
//! models**.
//!
//! ## The substitution (read this first)
//!
//! The paper runs GPT-4, GPT-3.5-turbo, and text-curie-001 through the
//! OpenAI API. Those models are unavailable offline, so this crate
//! substitutes simulated models that honour the same *interface* (a
//! prompt string in, a completion string out, token usage accounted) and
//! the same *failure structure*:
//!
//! * a simulated model can only select metrics **whose descriptions are
//!   present in its prompt** — no context, no answer (the paper's core
//!   claim about curated context);
//! * it can only produce well-formed analytic PromQL when **few-shot
//!   examples teach the query shape**; without exemplars it falls back
//!   to naive single-metric retrieval guesses and name fabrication —
//!   mirroring the paper's DIN-SQL failure example
//!   (`sum(amfcc lcs ni lr success)` fabricated from question words);
//! * capability tiers differ in paraphrase understanding, context
//!   window (curie truncates), template skill, and deterministic error
//!   injection — producing the Table 3b ordering as *emergent* behaviour.
//!
//! Determinism: a completion is a pure function of (model profile,
//! prompt text). There is no wall-clock, no RNG state; "noise" is a hash
//! of the question and model name, so reruns reproduce exactly —
//! matching the paper's temperature-0 setting ("for repeatable answers
//! to the same query").

mod batch;
mod cost;
mod faults;
mod model;
mod obs;
mod prompt;
mod sim;
mod tokens;

pub use batch::BatchExpander;
pub use cost::{CostLedger, CostMeter, Pricing, TokenUsage};
pub use faults::{FaultConfig, FaultyModel};
pub use model::{Completion, CompletionRequest, FoundationModel, ModelError, TaskKind};
pub use obs::ObservedModel;
pub use prompt::{ContextItem, FewShotExample, PromptBuilder, PromptPiece};
pub use sim::profile::{ModelProfile, SimulatedModel};
pub use sim::reason::{analyze, TaskShape};
pub use tokens::count_tokens;
