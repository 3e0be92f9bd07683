//! Metrics-emitting wrapper around any [`FoundationModel`].
//!
//! [`ObservedModel`] delegates every call and accounts prompt/completion
//! tokens, per-outcome call counts, and accumulated spend into a
//! [`dio_obs::Registry`] — the model-side half of the copilot's
//! self-telemetry.

use crate::cost::Pricing;
use crate::model::{Completion, CompletionRequest, FoundationModel, ModelError};
use dio_obs::Registry;

/// Help/name constants shared with the self-observation catalog.
const CALLS_NAME: &str = "dio_llm_model_calls_total";
const CALLS_HELP: &str = "Completion calls the copilot issued to the foundation model.";
const PROMPT_TOKENS_NAME: &str = "dio_llm_prompt_tokens_total";
const PROMPT_TOKENS_HELP: &str = "Prompt tokens sent to the foundation model.";
const COMPLETION_TOKENS_NAME: &str = "dio_llm_completion_tokens_total";
const COMPLETION_TOKENS_HELP: &str = "Completion tokens received back from the foundation model.";
const COST_NAME: &str = "dio_llm_cost_cents_total";
const COST_HELP: &str = "Accumulated spend in cents across every model completion.";

fn outcome_slug(result: &Result<Completion, ModelError>) -> &'static str {
    match result {
        Ok(_) => "ok",
        Err(ModelError::ContextOverflow { .. }) => "context_overflow",
        Err(ModelError::Unsupported(_)) => "unsupported",
        Err(ModelError::Unavailable(_)) => "unavailable",
    }
}

/// A [`FoundationModel`] wrapper that records token/cost/outcome metrics
/// for every `complete` call.
pub struct ObservedModel {
    inner: Box<dyn FoundationModel>,
    registry: Registry,
}

impl std::fmt::Debug for ObservedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObservedModel")
            .field("inner", &self.inner.name())
            .finish_non_exhaustive()
    }
}

impl ObservedModel {
    /// Wrap `inner`, pre-registering the zero-valued instruments so they
    /// export (and get catalog entries) before the first call.
    pub fn new(inner: Box<dyn FoundationModel>, registry: Registry) -> Self {
        let model = inner.name().to_string();
        registry.counter_with(CALLS_NAME, CALLS_HELP, &[("model", &model), ("outcome", "ok")]);
        registry.counter(PROMPT_TOKENS_NAME, PROMPT_TOKENS_HELP);
        registry.counter(COMPLETION_TOKENS_NAME, COMPLETION_TOKENS_HELP);
        registry.counter(COST_NAME, COST_HELP);
        ObservedModel { inner, registry }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &dyn FoundationModel {
        self.inner.as_ref()
    }
}

impl FoundationModel for ObservedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn pricing(&self) -> Pricing {
        self.inner.pricing()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<Completion, ModelError> {
        let result = self.inner.complete(request);
        let model = self.inner.name().to_string();
        self.registry
            .counter_with(
                CALLS_NAME,
                CALLS_HELP,
                &[("model", &model), ("outcome", outcome_slug(&result))],
            )
            .inc();
        if let Ok(c) = &result {
            self.registry
                .counter(PROMPT_TOKENS_NAME, PROMPT_TOKENS_HELP)
                .add(c.usage.prompt_tokens as f64);
            self.registry
                .counter(COMPLETION_TOKENS_NAME, COMPLETION_TOKENS_HELP)
                .add(c.usage.completion_tokens as f64);
            self.registry
                .counter(COST_NAME, COST_HELP)
                .add(self.inner.pricing().cost_cents(c.usage));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TaskKind;
    use crate::prompt::PromptBuilder;
    use crate::sim::profile::{ModelProfile, SimulatedModel};

    fn request(q: &str) -> CompletionRequest {
        let p = PromptBuilder::new()
            .system("sys")
            .question(q)
            .task(TaskKind::GeneratePromql)
            .build(32_000, 1000);
        CompletionRequest::paper_defaults(p)
    }

    #[test]
    fn counts_calls_tokens_and_cost() {
        let registry = Registry::new();
        let m = ObservedModel::new(
            Box::new(SimulatedModel::new(ModelProfile::gpt4_sim())),
            registry.clone(),
        );
        let c1 = m.complete(&request("how many paging attempts?")).unwrap();
        let c2 = m.complete(&request("how many registrations?")).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.total(CALLS_NAME), 2.0);
        assert_eq!(
            snap.total(PROMPT_TOKENS_NAME),
            (c1.usage.prompt_tokens + c2.usage.prompt_tokens) as f64
        );
        assert_eq!(
            snap.total(COMPLETION_TOKENS_NAME),
            (c1.usage.completion_tokens + c2.usage.completion_tokens) as f64
        );
        let expected_cost = m.pricing().cost_cents(c1.usage) + m.pricing().cost_cents(c2.usage);
        assert!((snap.total(COST_NAME) - expected_cost).abs() < 1e-12);
        // The ok series carries model + outcome labels.
        let fam = snap.family(CALLS_NAME).unwrap();
        let ok = fam
            .series
            .iter()
            .find(|s| s.labels.contains(&("outcome".into(), "ok".into())))
            .unwrap();
        assert!(ok.labels.contains(&("model".into(), "gpt-4-sim".into())));
    }

    #[test]
    fn delegation_is_transparent() {
        let inner = SimulatedModel::new(ModelProfile::gpt4_sim());
        let m = ObservedModel::new(
            Box::new(SimulatedModel::new(ModelProfile::gpt4_sim())),
            Registry::new(),
        );
        let r = request("how many paging attempts?");
        assert_eq!(m.complete(&r).unwrap(), inner.complete(&r).unwrap());
        assert_eq!(m.name(), inner.name());
        assert_eq!(m.context_window(), inner.context_window());
    }

    #[test]
    fn zero_instruments_export_before_first_call() {
        let registry = Registry::new();
        let _m = ObservedModel::new(
            Box::new(SimulatedModel::new(ModelProfile::gpt4_sim())),
            registry.clone(),
        );
        let snap = registry.snapshot();
        assert!(snap.family(CALLS_NAME).is_some());
        assert_eq!(snap.total(COST_NAME), 0.0);
    }
}
