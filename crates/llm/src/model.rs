//! The foundation-model interface.

use crate::cost::{Pricing, TokenUsage};
use crate::prompt::Prompt;
use serde::{Deserialize, Serialize};

/// What the pipeline wants the model to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskKind {
    /// Return the names of the metrics in CONTEXT most relevant to the
    /// question, comma-separated (§3.2's second stage).
    IdentifyMetrics,
    /// Return a single PromQL expression answering the question (§3.3).
    GeneratePromql,
    /// Return one PromQL expression per line for dashboard panels.
    GenerateDashboard,
    /// Answer the question directly with a number (what the bare GPT-4
    /// baseline is asked to do).
    AnswerDirectly,
    /// A previously generated PromQL expression failed in the sandbox;
    /// produce a corrected expression for the same question. The failed
    /// query and the sandbox's diagnosis ride along in the system
    /// section of the prompt.
    RepairPromql,
}

impl TaskKind {
    /// The directive text appended to the prompt.
    pub fn directive(&self) -> &'static str {
        match self {
            TaskKind::IdentifyMetrics => {
                "identify_metrics: list the metric names from CONTEXT most relevant to the question, comma separated"
            }
            TaskKind::GeneratePromql => {
                "generate_promql: output one PromQL expression that answers the question"
            }
            TaskKind::GenerateDashboard => {
                "generate_dashboard: output one PromQL expression per line for time-series panels of the relevant metrics"
            }
            TaskKind::AnswerDirectly => {
                "answer_directly: output the numeric answer to the question"
            }
            TaskKind::RepairPromql => {
                "repair_promql: the previous PromQL failed in the sandbox; output one corrected PromQL expression that answers the question"
            }
        }
    }

    /// Parse a directive line back into a task.
    pub fn from_directive(line: &str) -> Option<TaskKind> {
        let head = line.split(':').next()?.trim();
        Some(match head {
            "identify_metrics" => TaskKind::IdentifyMetrics,
            "generate_promql" => TaskKind::GeneratePromql,
            "generate_dashboard" => TaskKind::GenerateDashboard,
            "answer_directly" => TaskKind::AnswerDirectly,
            "repair_promql" => TaskKind::RepairPromql,
            _ => return None,
        })
    }
}

/// A completion request: the prompt plus decoding parameters. The
/// paper fixes `max_tokens = 1000` and `temperature = 0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletionRequest {
    /// The rendered prompt.
    pub prompt: Prompt,
    /// Maximum completion tokens.
    pub max_tokens: usize,
    /// Sampling temperature. The simulated models only implement 0.0
    /// (deterministic); any other value is rejected.
    pub temperature: f64,
    /// Per-call timeout in milliseconds, derived by the caller from its
    /// remaining request budget. `None` means no cap. Simulated models
    /// honour it deterministically: a call whose (simulated) latency
    /// would exceed the cap fails with [`ModelError::Unavailable`]
    /// without changing the fault schedule.
    #[serde(default)]
    pub timeout_ms: Option<u64>,
}

impl CompletionRequest {
    /// The paper's decoding configuration.
    pub fn paper_defaults(prompt: Prompt) -> Self {
        CompletionRequest {
            prompt,
            max_tokens: 1000,
            temperature: 0.0,
            timeout_ms: None,
        }
    }

    /// The same request with a per-call timeout cap.
    pub fn with_timeout_ms(mut self, timeout_ms: u64) -> Self {
        self.timeout_ms = Some(timeout_ms);
        self
    }
}

/// A model completion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// The generated text.
    pub text: String,
    /// Token usage for billing.
    pub usage: TokenUsage,
}

/// Errors a model can return.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelError {
    /// Prompt exceeds the context window.
    ContextOverflow {
        /// Prompt tokens.
        prompt_tokens: usize,
        /// The window.
        window: usize,
    },
    /// Unsupported decoding parameter.
    Unsupported(String),
    /// Transient upstream failure (timeout, rate limit, outage). The
    /// same request may succeed if retried.
    Unavailable(String),
}

impl ModelError {
    /// Whether retrying the identical request can plausibly succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, ModelError::Unavailable(_))
    }
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::ContextOverflow {
                prompt_tokens,
                window,
            } => write!(
                f,
                "prompt of {prompt_tokens} tokens exceeds context window of {window}"
            ),
            ModelError::Unsupported(m) => write!(f, "unsupported: {m}"),
            ModelError::Unavailable(m) => write!(f, "model unavailable: {m}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// A foundation model: prompt in, completion out.
///
/// `Sync` because one upstream serves every worker at once: the model
/// gateway shares a single model across its callers and lets their
/// calls run concurrently, as a hosted API serves concurrent requests.
/// An implementor that keeps state between calls guards it itself (a
/// `Mutex` or an atomic), so concurrent calls never need an outer lock.
pub trait FoundationModel: Send + Sync {
    /// Model identifier, e.g. `gpt-4-sim`.
    fn name(&self) -> &str;

    /// Context window in tokens.
    fn context_window(&self) -> usize;

    /// Pricing for cost accounting.
    fn pricing(&self) -> Pricing;

    /// Produce a completion.
    fn complete(&self, request: &CompletionRequest) -> Result<Completion, ModelError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directives_round_trip() {
        for t in [
            TaskKind::IdentifyMetrics,
            TaskKind::GeneratePromql,
            TaskKind::GenerateDashboard,
            TaskKind::AnswerDirectly,
            TaskKind::RepairPromql,
        ] {
            assert_eq!(TaskKind::from_directive(t.directive()), Some(t));
        }
        assert_eq!(TaskKind::from_directive("do_magic: now"), None);
    }

    #[test]
    fn transient_classification() {
        assert!(ModelError::Unavailable("503".into()).is_transient());
        assert!(!ModelError::Unsupported("temp".into()).is_transient());
        assert!(!ModelError::ContextOverflow {
            prompt_tokens: 10,
            window: 5
        }
        .is_transient());
    }

    #[test]
    fn paper_defaults() {
        let p = crate::prompt::PromptBuilder::new()
            .system("s")
            .question("q")
            .task(TaskKind::GeneratePromql)
            .build(32_000, 1000);
        let r = CompletionRequest::paper_defaults(p);
        assert_eq!(r.max_tokens, 1000);
        assert_eq!(r.temperature, 0.0);
    }
}
