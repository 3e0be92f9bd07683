//! Typed prompt construction with context-window budgeting.
//!
//! Stands in for the LangChain prompt assembly the paper uses (§4). A
//! prompt has five sections — system instruction, retrieved context,
//! expert functions, few-shot examples, and the user question — plus a
//! task directive telling the model what to emit. The builder enforces
//! the model's context window: highest-relevance context first, then
//! examples, dropping whatever does not fit (this truncation is exactly
//! how small-window models like text-curie-001 lose context and
//! accuracy).

use crate::model::TaskKind;
use crate::tokens::count_tokens;
use serde::{Deserialize, Serialize};

/// One retrieved context sample (metric description, function
/// definition, or expert note).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContextItem {
    /// Counter/function name.
    pub name: String,
    /// Description text.
    pub text: String,
    /// Retrieval score — items are kept highest-first on truncation.
    pub relevance: f32,
}

/// One few-shot exemplar: an expert-written question with its relevant
/// metrics and the PromQL that answers it (§4: "20 expert-generated
/// tuples consisting of user query, corresponding context, relevant
/// metrics and the PromQL query").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FewShotExample {
    /// The example user question.
    pub question: String,
    /// Metric names the example uses.
    pub metrics: Vec<String>,
    /// The reference PromQL.
    pub promql: String,
}

/// A rendered prompt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prompt {
    /// The full prompt text sent to the model.
    pub text: String,
    /// Approximate token count of `text`.
    pub tokens: usize,
    /// Context items that survived truncation.
    pub context_kept: usize,
    /// Context items dropped by the window budget.
    pub context_dropped: usize,
    /// Examples that survived truncation.
    pub examples_kept: usize,
    /// Examples dropped by the window budget.
    pub examples_dropped: usize,
    /// The task directive.
    pub task: TaskKind,
}

/// Builder for [`Prompt`].
#[derive(Debug, Clone, Default)]
pub struct PromptBuilder {
    system: String,
    context: Vec<ContextItem>,
    functions: Vec<ContextItem>,
    examples: Vec<FewShotExample>,
    question: String,
    task: Option<TaskKind>,
}

/// Section markers used in the rendered text. The simulated models parse
/// these back; real models would simply read them as headers.
pub mod markers {
    /// System section header.
    pub const SYSTEM: &str = "### SYSTEM";
    /// Context section header.
    pub const CONTEXT: &str = "### CONTEXT";
    /// Functions section header.
    pub const FUNCTIONS: &str = "### FUNCTIONS";
    /// Examples section header.
    pub const EXAMPLES: &str = "### EXAMPLES";
    /// Question section header.
    pub const QUESTION: &str = "### QUESTION";
    /// Task section header.
    pub const TASK: &str = "### TASK";
    /// Context item prefix.
    pub const ITEM: &str = "<<ITEM>> ";
    /// Example question prefix.
    pub const EX_Q: &str = "<<Q>> ";
    /// Example metrics prefix.
    pub const EX_METRICS: &str = "<<METRICS>> ";
    /// Example PromQL prefix.
    pub const EX_PROMQL: &str = "<<PROMQL>> ";
}

impl PromptBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        PromptBuilder::default()
    }

    /// Set the system instruction.
    pub fn system(mut self, text: impl Into<String>) -> Self {
        self.system = text.into();
        self
    }

    /// Add many context items.
    pub fn context(mut self, items: impl IntoIterator<Item = ContextItem>) -> Self {
        self.context.extend(items);
        self
    }

    /// Add an expert function definition.
    pub fn function(mut self, name: impl Into<String>, text: impl Into<String>) -> Self {
        self.functions.push(ContextItem {
            name: name.into(),
            text: text.into(),
            relevance: f32::MAX, // functions are never dropped before context
        });
        self
    }

    /// Add few-shot examples.
    pub fn examples(mut self, ex: impl IntoIterator<Item = FewShotExample>) -> Self {
        self.examples.extend(ex);
        self
    }

    /// Set the user question.
    pub fn question(mut self, q: impl Into<String>) -> Self {
        self.question = q.into();
        self
    }

    /// Set the task directive.
    pub fn task(mut self, task: TaskKind) -> Self {
        self.task = Some(task);
        self
    }

    /// Render within `context_window` tokens, reserving
    /// `reserved_output` for the completion.
    ///
    /// The skeleton (system, question, task) is always kept; context
    /// items are added in descending relevance, then functions, then
    /// examples in order, until the budget is exhausted.
    pub fn build(&self, context_window: usize, reserved_output: usize) -> Prompt {
        let task = self.task.unwrap_or(TaskKind::GeneratePromql);
        let budget = context_window.saturating_sub(reserved_output);

        let skeleton = format!(
            "{}\n{}\n\n{}\n{}\n\n{}\n{}\n",
            markers::SYSTEM,
            self.system,
            markers::QUESTION,
            self.question,
            markers::TASK,
            task.directive(),
        );
        let mut used = count_tokens(&skeleton)
            + count_tokens(markers::CONTEXT)
            + count_tokens(markers::FUNCTIONS)
            + count_tokens(markers::EXAMPLES);

        // Context in descending relevance (stable for ties).
        let mut ordered: Vec<&ContextItem> = self.context.iter().collect();
        ordered.sort_by(|a, b| {
            b.relevance
                .partial_cmp(&a.relevance)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut kept_context: Vec<&ContextItem> = Vec::new();
        let mut dropped_context = 0usize;
        for item in ordered {
            let line = format!("{}{}: {}", markers::ITEM, item.name, item.text);
            let cost = count_tokens(&line);
            if used + cost <= budget {
                used += cost;
                kept_context.push(item);
            } else {
                dropped_context += 1;
            }
        }

        let mut kept_functions: Vec<&ContextItem> = Vec::new();
        for item in &self.functions {
            let line = format!("{}{}: {}", markers::ITEM, item.name, item.text);
            let cost = count_tokens(&line);
            if used + cost <= budget {
                used += cost;
                kept_functions.push(item);
            }
        }

        let mut kept_examples: Vec<&FewShotExample> = Vec::new();
        let mut dropped_examples = 0usize;
        for ex in &self.examples {
            let block = format!(
                "{}{}\n{}{}\n{}{}",
                markers::EX_Q,
                ex.question,
                markers::EX_METRICS,
                ex.metrics.join(", "),
                markers::EX_PROMQL,
                ex.promql,
            );
            let cost = count_tokens(&block);
            if used + cost <= budget {
                used += cost;
                kept_examples.push(ex);
            } else {
                dropped_examples += 1;
            }
        }

        // Render.
        let mut text = String::new();
        text.push_str(markers::SYSTEM);
        text.push('\n');
        text.push_str(&self.system);
        text.push_str("\n\n");
        text.push_str(markers::CONTEXT);
        text.push('\n');
        // Context renders in the builder's insertion order (retrieval
        // rank), filtered to survivors.
        for item in &self.context {
            if kept_context.iter().any(|k| std::ptr::eq(*k, item)) {
                text.push_str(&format!("{}{}: {}\n", markers::ITEM, item.name, item.text));
            }
        }
        text.push('\n');
        text.push_str(markers::FUNCTIONS);
        text.push('\n');
        for item in &kept_functions {
            text.push_str(&format!("{}{}: {}\n", markers::ITEM, item.name, item.text));
        }
        text.push('\n');
        text.push_str(markers::EXAMPLES);
        text.push('\n');
        for ex in &kept_examples {
            text.push_str(&format!(
                "{}{}\n{}{}\n{}{}\n",
                markers::EX_Q,
                ex.question,
                markers::EX_METRICS,
                ex.metrics.join(", "),
                markers::EX_PROMQL,
                ex.promql,
            ));
        }
        text.push('\n');
        text.push_str(markers::QUESTION);
        text.push('\n');
        text.push_str(&self.question);
        text.push_str("\n\n");
        text.push_str(markers::TASK);
        text.push('\n');
        text.push_str(task.directive());
        text.push('\n');

        let tokens = count_tokens(&text);
        Prompt {
            text,
            tokens,
            context_kept: kept_context.len(),
            context_dropped: dropped_context,
            examples_kept: kept_examples.len(),
            examples_dropped: dropped_examples,
            task,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(name: &str, rel: f32) -> ContextItem {
        ContextItem {
            name: name.to_string(),
            text: format!("The number of {name} events observed by the network function."),
            relevance: rel,
        }
    }

    fn example(i: usize) -> FewShotExample {
        FewShotExample {
            question: format!("how many events of kind {i} happened"),
            metrics: vec![format!("metric_{i}")],
            promql: format!("sum(metric_{i})"),
        }
    }

    fn full_builder() -> PromptBuilder {
        PromptBuilder::new()
            .system("You are DIO copilot, answering operator data questions.")
            .context((0..10).map(|i| item(&format!("m{i}"), 1.0 - i as f32 * 0.05)))
            .examples((0..5).map(example))
            .question("how many m3 events happened")
            .task(TaskKind::GeneratePromql)
    }

    #[test]
    fn large_window_keeps_everything() {
        let p = full_builder().build(32_000, 1000);
        assert_eq!(p.context_kept, 10);
        assert_eq!(p.context_dropped, 0);
        assert_eq!(p.examples_kept, 5);
        assert!(p.tokens < 32_000);
        assert!(p.text.contains("### QUESTION"));
        assert!(p.text.contains("<<PROMQL>> sum(metric_0)"));
    }

    #[test]
    fn tiny_window_drops_low_relevance_context_first() {
        let p = full_builder().build(260, 50);
        assert!(p.context_dropped > 0, "expected drops: {p:?}");
        // The highest-relevance item must be the survivor.
        assert!(p.text.contains("<<ITEM>> m0:"));
        if p.context_kept < 10 {
            assert!(!p.text.contains("<<ITEM>> m9:"));
        }
    }

    #[test]
    fn skeleton_always_present() {
        let p = full_builder().build(60, 10);
        assert!(p.text.contains("### SYSTEM"));
        assert!(p.text.contains("### QUESTION"));
        assert!(p.text.contains("how many m3 events happened"));
        assert!(p.text.contains("### TASK"));
    }

    #[test]
    fn token_budget_respected() {
        for window in [200, 400, 800, 1600] {
            let p = full_builder().build(window, 100);
            assert!(
                p.tokens <= window,
                "window {window}: prompt used {} tokens",
                p.tokens
            );
        }
    }

    #[test]
    fn context_renders_in_retrieval_order() {
        let b = PromptBuilder::new()
            .system("s")
            .context(vec![item("first", 0.2), item("second", 0.9)])
            .question("q")
            .task(TaskKind::IdentifyMetrics);
        let p = b.build(32_000, 100);
        let first_pos = p.text.find("<<ITEM>> first").unwrap();
        let second_pos = p.text.find("<<ITEM>> second").unwrap();
        // Insertion order preserved even though relevance differs.
        assert!(first_pos < second_pos);
    }

    #[test]
    fn functions_render_between_context_and_examples() {
        let p = PromptBuilder::new()
            .system("s")
            .function("success_rate", "computes a success rate")
            .question("q")
            .task(TaskKind::GeneratePromql)
            .build(32_000, 100);
        assert!(p.text.contains("### FUNCTIONS"));
        assert!(p.text.contains("<<ITEM>> success_rate"));
    }

    #[test]
    fn build_is_deterministic() {
        let a = full_builder().build(1000, 100);
        let b = full_builder().build(1000, 100);
        assert_eq!(a, b);
    }
}
