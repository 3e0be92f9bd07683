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
//!
//! Sections are assembled from [`PromptPiece`]s: each context line,
//! function line and example block is rendered and priced once, and a
//! build only sorts by relevance, sums the stored counts against the
//! budget and copies the admitted pieces into one `String` sized up
//! front. The price of a prompt is the sum of its pieces' prices because
//! `count_tokens` never counts across whitespace and every piece is
//! written between newlines, so a prompt assembled from pieces is the
//! same bytes and the same count as one rendered and priced whole.

use crate::model::TaskKind;
use crate::tokens::count_tokens;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

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

/// One rendered piece of a prompt section with its token count: a
/// context or function line (`<<ITEM>> name: text`) or a few-shot
/// example block. A piece is rendered and priced once and then copied
/// into every prompt that shows it; the builder never re-reads its text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromptPiece {
    text: Box<str>,
    tokens: usize,
}

impl PromptPiece {
    /// A context or function line for the item `name` described by
    /// `text`.
    pub fn item(name: &str, text: &str) -> Self {
        Self::render([markers::ITEM, name, ": ", text].into_iter())
    }

    /// The block of one few-shot example: its question, metrics and
    /// PromQL, one line each.
    pub fn example(ex: &FewShotExample) -> Self {
        let metrics = ex.metrics.iter().enumerate().flat_map(|(i, metric)| {
            let sep = if i == 0 { "" } else { ", " };
            [sep, metric.as_str()]
        });
        let parts = [markers::EX_Q, &ex.question, "\n", markers::EX_METRICS]
            .into_iter()
            .chain(metrics)
            .chain(["\n", markers::EX_PROMQL, &ex.promql]);
        Self::render(parts)
    }

    /// `parts` back to back, in one allocation of exactly their length,
    /// and priced.
    fn render<'p>(parts: impl Iterator<Item = &'p str> + Clone) -> Self {
        let mut text = String::with_capacity(parts.clone().map(str::len).sum());
        parts.for_each(|part| text.push_str(part));
        PromptPiece {
            tokens: count_tokens(&text),
            text: text.into_boxed_str(),
        }
    }

    /// The rendered text, without a trailing newline.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// `count_tokens` of [`PromptPiece::text`].
    pub fn tokens(&self) -> usize {
        self.tokens
    }
}

/// Builder for [`Prompt`].
///
/// Sections hold [`PromptPiece`]s: the `*_pieces` methods borrow pieces
/// rendered ahead of time (for `'a`), and [`PromptBuilder::context`],
/// [`PromptBuilder::function`] and [`PromptBuilder::examples`] render
/// their arguments into owned pieces on insertion. Either way
/// [`PromptBuilder::build`] prices by the stored counts and copies
/// the pieces.
#[derive(Debug, Clone, Default)]
pub struct PromptBuilder<'a> {
    system: String,
    /// Context pieces with their retrieval relevance, in insertion order.
    context: Vec<(Cow<'a, PromptPiece>, f32)>,
    functions: Vec<Cow<'a, PromptPiece>>,
    examples: Vec<Cow<'a, PromptPiece>>,
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

impl<'a> PromptBuilder<'a> {
    /// Start an empty builder.
    pub fn new() -> Self {
        PromptBuilder::default()
    }

    /// Set the system instruction.
    pub fn system(mut self, text: impl Into<String>) -> Self {
        self.system = text.into();
        self
    }

    /// Add many context items, each rendered into a piece here.
    pub fn context(mut self, items: impl IntoIterator<Item = ContextItem>) -> Self {
        self.context.extend(items.into_iter().map(|item| {
            let piece = PromptPiece::item(&item.name, &item.text);
            (Cow::Owned(piece), item.relevance)
        }));
        self
    }

    /// Add context lines rendered ahead of time, each with its
    /// retrieval relevance.
    pub fn context_pieces(
        mut self,
        items: impl IntoIterator<Item = (&'a PromptPiece, f32)>,
    ) -> Self {
        let borrowed = items
            .into_iter()
            .map(|(piece, relevance)| (Cow::Borrowed(piece), relevance));
        self.context.extend(borrowed);
        self
    }

    /// Add an expert function definition.
    pub fn function(mut self, name: impl Into<String>, text: impl Into<String>) -> Self {
        let piece = PromptPiece::item(&name.into(), &text.into());
        self.functions.push(Cow::Owned(piece));
        self
    }

    /// Add function lines rendered ahead of time.
    pub fn function_pieces(mut self, pieces: impl IntoIterator<Item = &'a PromptPiece>) -> Self {
        self.functions.extend(pieces.into_iter().map(Cow::Borrowed));
        self
    }

    /// Add few-shot examples, each rendered into a piece here.
    pub fn examples(mut self, ex: impl IntoIterator<Item = FewShotExample>) -> Self {
        self.examples.extend(
            ex.into_iter()
                .map(|ex| Cow::Owned(PromptPiece::example(&ex))),
        );
        self
    }

    /// Add example blocks rendered ahead of time.
    pub fn example_pieces(mut self, pieces: impl IntoIterator<Item = &'a PromptPiece>) -> Self {
        self.examples.extend(pieces.into_iter().map(Cow::Borrowed));
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
        // so the prompt is priced piece by piece: the skeleton here, the
        // sections by the counts their pieces carry.
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
        let mut admit = |piece: &PromptPiece| {
            let fits = used + piece.tokens <= budget;
            if fits {
                used += piece.tokens;
            }
            fits
        };

        // Context is admitted in descending relevance (stable for ties),
        // a NaN relevance after every other, and renders in the
        // builder's insertion order (retrieval rank).
        let mut ordered: Vec<usize> = (0..self.context.len()).collect();
        ordered.sort_by(|&a, &b| {
            let (a, b) = (self.context[a].1, self.context[b].1);
            a.is_nan()
                .cmp(&b.is_nan())
                .then_with(|| b.partial_cmp(&a).unwrap_or(std::cmp::Ordering::Equal))
        });
        let mut admitted = vec![false; self.context.len()];
        for i in ordered {
            admitted[i] = admit(&self.context[i].0);
        }
        // Each section's admitted pieces, in one allocation apiece.
        let mut context = Vec::with_capacity(self.context.len());
        context.extend(
            self.context
                .iter()
                .zip(admitted)
                .filter_map(|((piece, _), kept)| kept.then_some(&**piece)),
        );
        let mut functions = Vec::with_capacity(self.functions.len());
        functions.extend(self.functions.iter().map(|p| &**p).filter(|p| admit(p)));
        let mut examples = Vec::with_capacity(self.examples.len());
        examples.extend(self.examples.iter().map(|p| &**p).filter(|p| admit(p)));

        // Size the text once: the skeleton, every admitted piece with
        // its newline, and the layout's 14 other newlines.
        let sections = [
            (markers::CONTEXT, &context),
            (markers::FUNCTIONS, &functions),
            (markers::EXAMPLES, &examples),
        ];
        let pieces = sections.iter().flat_map(|(_, pieces)| pieces.iter());
        let len = skeleton.iter().map(|part| part.len()).sum::<usize>()
            + pieces.map(|piece| piece.text.len() + 1).sum::<usize>()
            + 14;
        let mut text = String::with_capacity(len);
        text.push_str(markers::SYSTEM);
        text.push('\n');
        text.push_str(&self.system);
        text.push_str("\n\n");
        for (marker, pieces) in sections {
            text.push_str(marker);
            text.push('\n');
            for piece in pieces {
                text.push_str(&piece.text);
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

        debug_assert_eq!(text.len(), len);
        debug_assert_eq!(used, count_tokens(&text));
        Prompt {
            text,
            tokens: used,
            context_kept: context.len(),
            context_dropped: self.context.len() - context.len(),
            examples_kept: examples.len(),
            examples_dropped: self.examples.len() - examples.len(),
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

    fn full_builder() -> PromptBuilder<'static> {
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

    /// A NaN relevance is not an order the sort can panic on: the
    /// build returns a prompt and admits the NaN items after every
    /// item with a relevance, finite ones in their usual order.
    #[test]
    fn nan_relevances_build_and_are_admitted_last() {
        let relevances = [0.9, f32::NAN, 0.5, -0.0, f32::NAN, 0.0, 0.25, -0.1];
        let context: Vec<ContextItem> = (0..64)
            .map(|i| {
                let rel = relevances[(i * 5) % relevances.len()];
                let kind = if rel.is_nan() { "nan" } else { "num" };
                item(&format!("{kind}{i}"), rel)
            })
            .collect();
        let builder = PromptBuilder::new()
            .system("s")
            .context(context.clone())
            .question("q")
            .task(TaskKind::IdentifyMetrics);
        let finite = context.iter().filter(|c| !c.relevance.is_nan()).count();
        let mut kept_counts = Vec::new();
        for window in [40, 300, 600, 900, 1_200, 32_000] {
            let p = builder.build(window, 10);
            let kept = |kind: &str| p.text.matches(&format!("<<ITEM>> {kind}")).count();
            assert_eq!(kept("num") + kept("nan"), p.context_kept);
            assert!(kept("nan") == 0 || kept("num") == finite, "window {window}: {p:?}");
            kept_counts.push((kept("num"), kept("nan")));
        }
        // The windows cut inside the finite items and inside the NaN ones.
        assert!(kept_counts.iter().any(|&(num, nan)| num > 0 && num < finite && nan == 0));
        assert!(kept_counts.iter().any(|&(num, nan)| num == finite && nan > 0 && nan < 64 - finite));
        assert_eq!(kept_counts.last(), Some(&(finite, 64 - finite)));
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

    /// `build` as it was before prompts were assembled from pieces:
    /// every line formatted and priced per build. Kept as the oracle the
    /// piece-based build is held to.
    #[allow(clippy::too_many_arguments)]
    fn rendered_per_build(
        system: &str,
        context: &[ContextItem],
        functions: &[ContextItem],
        examples: &[FewShotExample],
        question: &str,
        task: TaskKind,
        context_window: usize,
        reserved_output: usize,
    ) -> Prompt {
        let budget = context_window.saturating_sub(reserved_output);
        let skeleton = [
            markers::SYSTEM,
            system,
            markers::CONTEXT,
            markers::FUNCTIONS,
            markers::EXAMPLES,
            markers::QUESTION,
            question,
            markers::TASK,
            task.directive(),
        ];
        let mut used: usize = skeleton.iter().map(|piece| count_tokens(piece)).sum();
        let mut admit = |piece: String| {
            let cost = count_tokens(&piece);
            (used + cost <= budget).then(|| {
                used += cost;
                piece
            })
        };
        let item_line =
            |item: &ContextItem| format!("{}{}: {}", markers::ITEM, item.name, item.text);
        let mut ordered: Vec<usize> = (0..context.len()).collect();
        ordered.sort_by(|&a, &b| {
            context[b]
                .relevance
                .partial_cmp(&context[a].relevance)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut context_lines: Vec<Option<String>> = vec![None; context.len()];
        for i in ordered {
            context_lines[i] = admit(item_line(&context[i]));
        }
        let context_lines: Vec<String> = context_lines.into_iter().flatten().collect();
        let function_lines: Vec<String> = functions
            .iter()
            .filter_map(|item| admit(item_line(item)))
            .collect();
        let example_blocks: Vec<String> = examples
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
        text.push_str(system);
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
        text.push_str(question);
        text.push_str("\n\n");
        text.push_str(markers::TASK);
        text.push('\n');
        text.push_str(task.directive());
        text.push('\n');
        Prompt {
            text,
            tokens: used,
            context_kept: context_lines.len(),
            context_dropped: context.len() - context_lines.len(),
            examples_kept: example_blocks.len(),
            examples_dropped: examples.len() - example_blocks.len(),
            task,
        }
    }

    /// Words the generated prompts are made of: counter names, prose,
    /// punctuation runs, PromQL, odd whitespace and non-ASCII text.
    const WORDS: &[&str] = &[
        "amfcc_n1_initial_registration_attempt", "The", "number", "of", "procedures", "handled",
        "by", "AMF.", "sum(rate(upfup_n3_ul_bytes[5m]))", "8.2.1", "--", "(see", "TS", "24.501).",
        "a\tb", "x\x0by", "cœur", "débit", "Σ", "", "100", "*", "/", "success_rate", "N4",
    ];

    fn words(rng: &mut proptest::strategy::TestRng, max: usize) -> String {
        let n = rng.below(max + 1);
        (0..n)
            .map(|_| WORDS[rng.below(WORDS.len())])
            .collect::<Vec<_>>()
            .join(" ")
    }

    proptest::proptest! {
        /// Random context items with tied and distinct relevances,
        /// functions and exemplar sets, under windows from one that holds
        /// nothing past the skeleton to one that holds everything —
        /// text-curie's 2 048 with its 512 reserved among them: the
        /// owned entry points, the borrowed pieces and the per-build
        /// rendering give the same `Prompt`.
        #[test]
        fn pieces_build_the_prompt_rendering_per_build_did(
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = proptest::strategy::TestRng::new(seed);
            let relevances = [0.9, 0.5, 0.5, 0.25, 0.0, -0.0, -0.1, 0.5];
            let context: Vec<ContextItem> = (0..rng.below(40))
                .map(|i| ContextItem {
                    name: format!("{}_{i}", words(&mut rng, 2)),
                    text: words(&mut rng, 14),
                    relevance: relevances[rng.below(relevances.len())],
                })
                .collect();
            let functions: Vec<ContextItem> = (0..rng.below(6))
                .map(|i| ContextItem {
                    name: format!("fn_{i}"),
                    text: words(&mut rng, 8),
                    relevance: f32::MAX,
                })
                .collect();
            let examples: Vec<FewShotExample> = (0..rng.below(22))
                .map(|_| FewShotExample {
                    question: words(&mut rng, 10),
                    metrics: (0..rng.below(4)).map(|_| words(&mut rng, 1)).collect(),
                    promql: words(&mut rng, 3),
                })
                .collect();
            let (system, question) = (words(&mut rng, 12), words(&mut rng, 10));
            let tasks = [TaskKind::GeneratePromql, TaskKind::RepairPromql, TaskKind::IdentifyMetrics];
            let task = tasks[rng.below(tasks.len())];
            let windows = [
                (2_048, 512),
                (16_384, 1_000),
                (32_768, 1_000),
                (rng.below(3_000), rng.below(600)),
            ];
            let (window, reserved) = windows[rng.below(windows.len())];

            let oracle = rendered_per_build(
                &system, &context, &functions, &examples, &question, task, window, reserved,
            );
            let mut owned = PromptBuilder::new()
                .system(system.as_str())
                .context(context.iter().cloned())
                .examples(examples.iter().cloned())
                .question(question.as_str())
                .task(task);
            for f in &functions {
                owned = owned.function(f.name.as_str(), f.text.as_str());
            }
            proptest::prop_assert_eq!(&owned.build(window, reserved), &oracle);

            let context_pieces: Vec<(PromptPiece, f32)> = context
                .iter()
                .map(|c| (PromptPiece::item(&c.name, &c.text), c.relevance))
                .collect();
            let function_pieces: Vec<PromptPiece> =
                functions.iter().map(|f| PromptPiece::item(&f.name, &f.text)).collect();
            let example_pieces: Vec<PromptPiece> =
                examples.iter().map(PromptPiece::example).collect();
            let borrowed = PromptBuilder::new()
                .system(system.as_str())
                .context_pieces(context_pieces.iter().map(|(p, r)| (p, *r)))
                .function_pieces(&function_pieces)
                .example_pieces(&example_pieces)
                .question(question.as_str())
                .task(task)
                .build(window, reserved);
            proptest::prop_assert_eq!(&borrowed, &oracle);
        }
    }

    #[test]
    fn a_piece_is_priced_as_its_text() {
        let line = PromptPiece::item("amfcc_n1_auth_request", "The number of AUTH requests.");
        assert_eq!(
            line.text(),
            "<<ITEM>> amfcc_n1_auth_request: The number of AUTH requests."
        );
        assert_eq!(line.tokens(), count_tokens(line.text()));
        let block = PromptPiece::example(&example(3));
        assert_eq!(
            block.text(),
            "<<Q>> how many events of kind 3 happened\n\
             <<METRICS>> metric_3\n\
             <<PROMQL>> sum(metric_3)"
        );
        assert_eq!(block.tokens(), count_tokens(block.text()));
    }
}
