//! Copilot configuration.

use crate::extractor::RetrievalMode;
use crate::recovery::RecoveryPolicy;
use serde::{Deserialize, Serialize};

/// Pipeline parameters. Defaults follow the paper's §4 evaluation
/// setup exactly: top-29 context samples, 20 few-shot exemplars,
/// 1000 max output tokens, temperature 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CopilotConfig {
    /// Context samples retrieved per question ("the top 29 most similar
    /// text samples are appended as supplemental context").
    pub top_k: usize,
    /// Maximum few-shot exemplars placed in the code-generation prompt.
    pub max_exemplars: usize,
    /// Maximum completion tokens ("maximum number of output tokens is
    /// set to 1000").
    pub max_output_tokens: usize,
    /// Sampling temperature ("temperature parameter … set to 0").
    pub temperature: f64,
    /// Also generate a dashboard for each answer.
    pub generate_dashboards: bool,
    /// Dashboard span (ms) ending at the evaluation timestamp.
    pub dashboard_span_ms: i64,
    /// Use the domain-tuned embedder (telecom lexicon); `false` falls
    /// back to the generic embedder — the §5.3 ablation lever.
    pub domain_embedder: bool,
    /// Retrieval mode for the context extractor (ablation lever).
    pub retrieval: RetrievalMode,
    /// Run metric identification as a separate model call before code
    /// generation. The default (`false`) folds both §3.2/§3.3 roles
    /// into one prompt — same architecture stages, one inference —
    /// which is what keeps the per-query cost in the paper's envelope.
    pub two_stage: bool,
    /// Bounds on retries, repair rounds, backoff, and the circuit
    /// breaker. [`RecoveryPolicy::disabled`] is the ablation baseline.
    pub recovery: RecoveryPolicy,
}

impl Default for CopilotConfig {
    fn default() -> Self {
        CopilotConfig {
            top_k: 29,
            max_exemplars: 20,
            max_output_tokens: 1000,
            temperature: 0.0,
            generate_dashboards: true,
            dashboard_span_ms: 3 * 3600 * 1000,
            domain_embedder: true,
            retrieval: RetrievalMode::Flat,
            two_stage: false,
            recovery: RecoveryPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = CopilotConfig::default();
        assert_eq!(c.top_k, 29);
        assert_eq!(c.max_exemplars, 20);
        assert_eq!(c.max_output_tokens, 1000);
        assert_eq!(c.temperature, 0.0);
    }
}
