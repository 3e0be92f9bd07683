//! [`BatchExpander`], an identity wrapper: every request passes straight
//! through to the wrapped model. It stays because the benchmark's
//! `serve_mixed` workload names it.

use crate::cost::Pricing;
use crate::model::{Completion, CompletionRequest, FoundationModel, ModelError};

/// A [`FoundationModel`] that forwards every call to the one it wraps,
/// unchanged.
#[derive(Debug, Clone)]
pub struct BatchExpander<M> {
    inner: M,
}

impl<M: FoundationModel> BatchExpander<M> {
    /// Wrap `inner`.
    pub fn new(inner: M) -> Self {
        BatchExpander { inner }
    }
}

impl<M: FoundationModel> FoundationModel for BatchExpander<M> {
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
        self.inner.complete(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TaskKind;
    use crate::prompt::PromptBuilder;
    use crate::sim::profile::{ModelProfile, SimulatedModel};

    #[test]
    fn non_batched_prompts_pass_through_untouched() {
        let model = SimulatedModel::new(ModelProfile::gpt4_sim());
        let expander = BatchExpander::new(model.clone());
        let r = CompletionRequest::paper_defaults(
            PromptBuilder::new()
                .system("You are DIO copilot, answering operator data questions.")
                .question("how many paging attempts happened?")
                .task(TaskKind::GeneratePromql)
                .build(32_000, 1000),
        );
        assert_eq!(expander.complete(&r).unwrap(), model.complete(&r).unwrap());
    }
}
