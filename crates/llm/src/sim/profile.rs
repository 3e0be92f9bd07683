//! Capability tiers and the simulated-model implementation.

use crate::cost::{Pricing, TokenUsage};
use crate::model::{Completion, CompletionRequest, FoundationModel, ModelError, TaskKind};
use crate::sim::codegen::{generate_promql, CodegenConfig};
use crate::sim::noise;
use crate::sim::parse::parse_prompt;
use crate::sim::reason::{analyze, shape_of};
use crate::sim::select::{select_metrics, SelectionConfig};
use crate::tokens::count_tokens;
use serde::{Deserialize, Serialize};

/// A capability tier. The three presets mirror the paper's §4.2.4 model
/// sweep; parameters were calibrated so the *pipeline-level* accuracy
/// ordering and rough gaps match Table 3b (they are behavioural levers,
/// not claims about the real models' internals).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Model identifier.
    pub name: String,
    /// Context window in tokens.
    pub context_window: usize,
    /// Pricing.
    pub pricing: Pricing,
    /// Synonym/jargon bridging strength (0–1).
    pub paraphrase_strength: f64,
    /// Near-tie resolution strength (0–1).
    pub selection_strength: f64,
    /// Correct-template probability with covering exemplars (0–1).
    pub template_strength: f64,
    /// Correct-template probability with no exemplars (0–1).
    pub naive_strength: f64,
}

impl ModelProfile {
    /// GPT-4 analogue: 32k window, strong understanding.
    pub fn gpt4_sim() -> Self {
        ModelProfile {
            name: "gpt-4-sim".into(),
            context_window: 32_768,
            pricing: Pricing::gpt4(),
            paraphrase_strength: 0.45,
            selection_strength: 0.78,
            template_strength: 0.90,
            naive_strength: 0.30,
        }
    }

    /// GPT-3.5-turbo analogue: 16k window, noticeably weaker selection.
    pub fn gpt35_turbo_sim() -> Self {
        ModelProfile {
            name: "gpt-3.5-turbo-sim".into(),
            context_window: 16_384,
            pricing: Pricing::gpt35_turbo(),
            paraphrase_strength: 0.30,
            selection_strength: 0.52,
            template_strength: 0.70,
            naive_strength: 0.18,
        }
    }

    /// text-curie-001 analogue: 2k window (context gets truncated),
    /// weak everything.
    pub fn text_curie_sim() -> Self {
        ModelProfile {
            name: "text-curie-001-sim".into(),
            context_window: 2_048,
            pricing: Pricing::text_curie(),
            paraphrase_strength: 0.15,
            selection_strength: 0.45,
            template_strength: 0.55,
            naive_strength: 0.08,
        }
    }
}

/// A deterministic simulated foundation model.
#[derive(Debug, Clone)]
pub struct SimulatedModel {
    profile: ModelProfile,
}

impl SimulatedModel {
    /// Wrap a profile. The first model a process makes builds the
    /// telecom lexicon selection reads, so that no ask builds it.
    pub fn new(profile: ModelProfile) -> Self {
        crate::sim::select::lexicon();
        SimulatedModel { profile }
    }

    fn selection_config(&self) -> SelectionConfig<'_> {
        SelectionConfig {
            paraphrase_strength: self.profile.paraphrase_strength,
            selection_strength: self.profile.selection_strength,
            model_name: &self.profile.name,
        }
    }

    fn codegen_config(&self) -> CodegenConfig<'_> {
        CodegenConfig {
            template_strength: self.profile.template_strength,
            naive_strength: self.profile.naive_strength,
            model_name: &self.profile.name,
        }
    }
}

/// Gauge-style name suffixes (the model's heuristic for "do not rate()
/// this" when generating dashboard panels).
const GAUGE_SUFFIXES: &[&str] = &["current", "peak", "mean", "percent", "bytes_in_use"];

impl FoundationModel for SimulatedModel {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn context_window(&self) -> usize {
        self.profile.context_window
    }

    fn pricing(&self) -> Pricing {
        self.profile.pricing
    }

    fn complete(&self, request: &CompletionRequest) -> Result<Completion, ModelError> {
        if request.temperature != 0.0 {
            return Err(ModelError::Unsupported(
                "simulated models implement temperature 0 only".to_string(),
            ));
        }
        if request.prompt.tokens > self.profile.context_window {
            return Err(ModelError::ContextOverflow {
                prompt_tokens: request.prompt.tokens,
                window: self.profile.context_window,
            });
        }

        let parsed = parse_prompt(&request.prompt.text);
        let task = parsed.task.unwrap_or(request.prompt.task);
        // Only the arms that name metrics read the question and score
        // the context; the chat answer looks at neither.
        let select = || {
            let analysis = analyze(&parsed.question);
            let selections = select_metrics(
                &analysis,
                &parsed.context,
                &self.selection_config(),
                &parsed.question,
            );
            (analysis, selections)
        };

        let text = match task {
            TaskKind::IdentifyMetrics => {
                let (_, selections) = select();
                let names: Vec<String> = selections.into_iter().filter_map(|s| s.name).collect();
                if names.is_empty() {
                    "none".to_string()
                } else {
                    names.join(", ")
                }
            }
            // Repair re-derives the query from the question and context
            // exactly like generation: the simulated model's "fix" for a
            // corrupted query is a clean re-synthesis.
            TaskKind::GeneratePromql | TaskKind::RepairPromql => {
                let (analysis, selections) = select();
                let shape_covered = parsed
                    .examples
                    .iter()
                    .any(|e| shape_of(e.question) == analysis.shape);
                let schema_names: Vec<&str> = parsed.context.iter().map(|i| i.name).collect();
                generate_promql(
                    &analysis,
                    &selections,
                    !parsed.examples.is_empty(),
                    shape_covered,
                    &schema_names,
                    &self.codegen_config(),
                    &parsed.question,
                )
            }
            TaskKind::GenerateDashboard => {
                let (_, selections) = select();
                let mut lines = Vec::new();
                for s in selections.iter().filter_map(|s| s.name.as_deref()) {
                    let gaugeish = GAUGE_SUFFIXES.iter().any(|g| s.ends_with(g));
                    if gaugeish {
                        lines.push(format!("sum({s})"));
                    } else {
                        lines.push(format!("sum(rate({s}[5m]))"));
                    }
                }
                if lines.is_empty() {
                    "sum(up)".to_string()
                } else {
                    lines.join("\n")
                }
            }
            TaskKind::AnswerDirectly => {
                // A bare model without data access hallucinates: it
                // produces a fluent but ungrounded figure (Figure 1a).
                let magnitude = noise::pick(&[&parsed.question, &self.profile.name], 6);
                let base = noise::pick(&[&parsed.question, "val"], 9) + 1;
                let value = base as f64 * 10f64.powi(magnitude as i32);
                format!(
                    "I don't have direct access to your network's live data, and the field names \
                     in your schema are not standard. Based on typical deployments, a rough \
                     estimate would be around {value:.0}, but you should verify against your \
                     monitoring system."
                )
            }
        };

        let completion_tokens = count_tokens(&text).min(request.max_tokens);
        Ok(Completion {
            usage: TokenUsage {
                prompt_tokens: request.prompt.tokens,
                completion_tokens,
            },
            text,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::{ContextItem, FewShotExample, PromptBuilder};

    fn context() -> Vec<ContextItem> {
        vec![
            ContextItem {
                name: "amfcc_n1_initial_registration_attempt".into(),
                text: "The number of initial registration procedure attempts handled by AMF."
                    .into(),
                relevance: 0.9,
            },
            ContextItem {
                name: "amfcc_n1_initial_registration_success".into(),
                text: "The number of initial registration procedures completed successfully by AMF."
                    .into(),
                relevance: 0.8,
            },
        ]
    }

    fn fewshot() -> Vec<FewShotExample> {
        vec![
            FewShotExample {
                question: "What is the paging success rate at the AMF?".into(),
                metrics: vec!["amfcc_n2_paging_success".into(), "amfcc_n2_paging_attempt".into()],
                promql: "100 * sum(amfcc_n2_paging_success) / sum(amfcc_n2_paging_attempt)".into(),
            },
            FewShotExample {
                question: "How many NF heartbeats did the NRF process?".into(),
                metrics: vec!["nrfnfm_nf_heartbeat_attempt".into()],
                promql: "sum(nrfnfm_nf_heartbeat_attempt)".into(),
            },
        ]
    }

    fn request(task: TaskKind, with_examples: bool) -> CompletionRequest {
        let mut b = PromptBuilder::new()
            .system("You are DIO copilot.")
            .context(context())
            .question("What is the initial registration procedure success rate at the AMF?")
            .task(task);
        if with_examples {
            b = b.examples(fewshot());
        }
        CompletionRequest::paper_defaults(b.build(32_000, 1000))
    }

    #[test]
    fn identify_metrics_lists_relevant_names() {
        let m = SimulatedModel::new(ModelProfile::gpt4_sim());
        let c = m.complete(&request(TaskKind::IdentifyMetrics, false)).unwrap();
        assert!(c.text.contains("amfcc_n1_initial_registration_success"));
        assert!(c.text.contains("amfcc_n1_initial_registration_attempt"));
        assert!(c.usage.prompt_tokens > 0);
        assert!(c.usage.completion_tokens > 0);
    }

    #[test]
    fn generate_promql_with_examples_is_canonical() {
        let m = SimulatedModel::new(ModelProfile::gpt4_sim());
        let c = m.complete(&request(TaskKind::GeneratePromql, true)).unwrap();
        assert_eq!(
            c.text,
            "100 * sum(amfcc_n1_initial_registration_success) / sum(amfcc_n1_initial_registration_attempt)"
        );
    }

    #[test]
    fn dashboard_emits_rate_panels() {
        let m = SimulatedModel::new(ModelProfile::gpt4_sim());
        let c = m.complete(&request(TaskKind::GenerateDashboard, true)).unwrap();
        assert!(c.text.lines().count() >= 1);
        assert!(c.text.contains("rate("));
    }

    #[test]
    fn answer_directly_hallucinates_prose() {
        let m = SimulatedModel::new(ModelProfile::gpt4_sim());
        let c = m.complete(&request(TaskKind::AnswerDirectly, false)).unwrap();
        assert!(c.text.contains("estimate"));
    }

    #[test]
    fn rejects_nonzero_temperature() {
        let m = SimulatedModel::new(ModelProfile::gpt4_sim());
        let mut r = request(TaskKind::GeneratePromql, true);
        r.temperature = 0.7;
        assert!(matches!(m.complete(&r), Err(ModelError::Unsupported(_))));
    }

    #[test]
    fn rejects_overflowing_prompt() {
        let m = SimulatedModel::new(ModelProfile::text_curie_sim());
        // Build a prompt bigger than curie's window by lying about the
        // window at build time.
        let big = PromptBuilder::new()
            .system("very long system prompt ".repeat(400))
            .question("q")
            .task(TaskKind::GeneratePromql)
            .build(1_000_000, 0);
        let r = CompletionRequest::paper_defaults(big);
        assert!(matches!(
            m.complete(&r),
            Err(ModelError::ContextOverflow { .. })
        ));
    }

    #[test]
    fn completions_are_deterministic() {
        let m = SimulatedModel::new(ModelProfile::gpt35_turbo_sim());
        let a = m.complete(&request(TaskKind::GeneratePromql, true)).unwrap();
        let b = m.complete(&request(TaskKind::GeneratePromql, true)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn profiles_are_ordered_by_capability() {
        let g4 = ModelProfile::gpt4_sim();
        let g35 = ModelProfile::gpt35_turbo_sim();
        let cu = ModelProfile::text_curie_sim();
        assert!(g4.selection_strength > g35.selection_strength);
        assert!(g35.selection_strength > cu.selection_strength);
        assert!(g4.context_window > g35.context_window);
        assert!(g35.context_window > cu.context_window);
    }
}
