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
pub(crate) mod markers {
    /// System section header.
    pub(crate) const SYSTEM: &str = "### SYSTEM";
    /// Context section header.
    pub(crate) const CONTEXT: &str = "### CONTEXT";
    /// Functions section header.
    pub(crate) const FUNCTIONS: &str = "### FUNCTIONS";
    /// Examples section header.
    pub(crate) const EXAMPLES: &str = "### EXAMPLES";
    /// Question section header.
    pub(crate) const QUESTION: &str = "### QUESTION";
    /// Task section header.
    pub(crate) const TASK: &str = "### TASK";
    /// Context item prefix.
    pub(crate) const ITEM: &str = "<<ITEM>> ";
    /// Example question prefix.
    pub(crate) const EX_Q: &str = "<<Q>> ";
    /// Example metrics prefix.
    pub(crate) const EX_METRICS: &str = "<<METRICS>> ";
    /// Example PromQL prefix.
    pub(crate) const EX_PROMQL: &str = "<<PROMQL>> ";
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

        // `count_tokens` is additive over whitespace-separated pieces,
        // so the prompt is priced piece by piece as it is assembled.
        let skeleton = [
            markers::SYSTEM,
            &self.system,
            markers::CONTEXT,
            markers::FUNCTIONS,
            markers::EXAMPLES,
            markers::QUESTION,
            &self.question,
            markers::TASK,
            task.directive(),
        ];
        let mut used: usize = skeleton.iter().map(|piece| count_tokens(piece)).sum();

        // Every line is formatted once: priced, and kept to be appended
        // if it still fits.
        let mut admit = |piece: String| {
            let cost = count_tokens(&piece);
            (used + cost <= budget).then(|| {
                used += cost;
                piece
            })
        };
        let item_line =
            |item: &ContextItem| format!("{}{}: {}", markers::ITEM, item.name, item.text);

        // Context is admitted in descending relevance (stable for ties)
        // and renders in the builder's insertion order (retrieval rank).
        let mut ordered: Vec<usize> = (0..self.context.len()).collect();
        ordered.sort_by(|&a, &b| {
            self.context[b]
                .relevance
                .partial_cmp(&self.context[a].relevance)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut context_lines: Vec<Option<String>> = vec![None; self.context.len()];
        for i in ordered {
            context_lines[i] = admit(item_line(&self.context[i]));
        }
        let context_lines: Vec<String> = context_lines.into_iter().flatten().collect();
        let function_lines: Vec<String> = self
            .functions
            .iter()
            .filter_map(|item| admit(item_line(item)))
            .collect();
        let example_blocks: Vec<String> = self
            .examples
            .iter()
            .filter_map(|ex| {
                admit(format!(
                    "{}{}\n{}{}\n{}{}",
                    markers::EX_Q,
                    ex.question,
                    markers::EX_METRICS,
                    ex.metrics.join(", "),
                    markers::EX_PROMQL,
                    ex.promql,
                ))
            })
            .collect();

        let mut text = String::new();
        text.push_str(markers::SYSTEM);
        text.push('\n');
        text.push_str(&self.system);
        text.push_str("\n\n");
        for (marker, lines) in [
            (markers::CONTEXT, &context_lines),
            (markers::FUNCTIONS, &function_lines),
            (markers::EXAMPLES, &example_blocks),
        ] {
            text.push_str(marker);
            text.push('\n');
            for line in lines {
                text.push_str(line);
                text.push('\n');
            }
            text.push('\n');
        }
        text.push_str(markers::QUESTION);
        text.push('\n');
        text.push_str(&self.question);
        text.push_str("\n\n");
        text.push_str(markers::TASK);
        text.push('\n');
        text.push_str(task.directive());
        text.push('\n');

        debug_assert_eq!(used, count_tokens(&text));
        Prompt {
            text,
            tokens: used,
            context_kept: context_lines.len(),
            context_dropped: self.context.len() - context_lines.len(),
            examples_kept: example_blocks.len(),
            examples_dropped: self.examples.len() - example_blocks.len(),
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

    proptest::proptest! {
        /// `tokens` is the sum of what was priced, never a recount —
        /// with sections empty or full, functions present or not, and
        /// windows from one that holds only the skeleton to one that
        /// holds everything.
        #[test]
        fn tokens_is_the_count_of_the_rendered_text(
            context in 0usize..12,
            functions in 0usize..4,
            examples in 0usize..6,
            window in 0usize..700,
            reserved in 0usize..80,
        ) {
            let mut builder = PromptBuilder::new()
                .system("You are DIO copilot.")
                .context((0..context).map(|i| item(&format!("m{i}"), (i * 7 % 5) as f32)))
                .examples((0..examples).map(example))
                .question("how many m3 events happened");
            for i in 0..functions {
                builder = builder.function(format!("fn_{i}"), "computes  a\tratio, in percent");
            }
            let p = builder.build(window, reserved);
            proptest::prop_assert_eq!(p.tokens, count_tokens(&p.text));
            proptest::prop_assert_eq!(p.context_kept + p.context_dropped, context);
            proptest::prop_assert_eq!(p.examples_kept + p.examples_dropped, examples);
            // Whatever was admitted beyond the skeleton fitted the budget.
            let functions_kept = p.text.matches(markers::ITEM).count() - p.context_kept;
            proptest::prop_assert!(functions_kept <= functions);
            if p.context_kept + functions_kept + p.examples_kept > 0 {
                proptest::prop_assert!(p.tokens <= window.saturating_sub(reserved));
            }
        }
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
