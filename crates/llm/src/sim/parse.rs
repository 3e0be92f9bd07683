//! Parsing the rendered prompt back into sections.
//!
//! The simulated model receives only the prompt *text* — the same
//! contract a real API model has. This module recovers the structured
//! sections from the markers the [`PromptBuilder`] emits.
//!
//! [`PromptBuilder`]: crate::prompt::PromptBuilder

use crate::model::TaskKind;
use crate::prompt::markers;

/// A context entry as seen by the model, borrowed from the prompt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ParsedItem<'a> {
    /// Counter/function name.
    pub name: &'a str,
    /// Description (empty when the prompt only lists names).
    pub text: &'a str,
}

/// A few-shot example as seen by the model, borrowed from the prompt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ParsedExample<'a> {
    /// Natural-language question.
    pub question: &'a str,
    /// The relevant metric names.
    pub metrics: Vec<&'a str>,
    /// The PromQL answer.
    pub promql: &'a str,
}

/// The structured view of a prompt. Items and examples are slices of
/// the prompt text; the system instruction and the question may span
/// lines, which are joined with one space.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct ParsedPrompt<'a> {
    /// System instruction.
    pub system: String,
    /// CONTEXT items.
    pub context: Vec<ParsedItem<'a>>,
    /// FUNCTIONS items.
    pub functions: Vec<ParsedItem<'a>>,
    /// Few-shot examples.
    pub examples: Vec<ParsedExample<'a>>,
    /// The user question.
    pub question: String,
    /// Task directive, if recognised.
    pub task: Option<TaskKind>,
}

#[derive(PartialEq, Clone, Copy)]
enum Section {
    None,
    System,
    Context,
    Functions,
    Examples,
    Question,
    Task,
}

const SECTIONS: [(&str, Section); 6] = [
    (markers::SYSTEM, Section::System),
    (markers::CONTEXT, Section::Context),
    (markers::FUNCTIONS, Section::Functions),
    (markers::EXAMPLES, Section::Examples),
    (markers::QUESTION, Section::Question),
    (markers::TASK, Section::Task),
];

fn push_joined(out: &mut String, line: &str) {
    let line = line.trim();
    if !line.is_empty() {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(line);
    }
}

/// Parse a prompt rendered by the builder. Unknown lines are ignored,
/// so the parser is robust to prompts hand-built by the baselines.
pub(crate) fn parse_prompt(text: &str) -> ParsedPrompt<'_> {
    let mut out = ParsedPrompt::default();
    let mut section = Section::None;

    for line in text.lines() {
        let marker = line.trim_end();
        if let Some(&(_, s)) = SECTIONS.iter().find(|(m, _)| *m == marker) {
            section = s;
            continue;
        }
        match section {
            Section::None => {}
            Section::System => push_joined(&mut out.system, line),
            Section::Context | Section::Functions => {
                if let Some(rest) = line.strip_prefix(markers::ITEM) {
                    let (name, text) = rest.split_once(": ").unwrap_or((rest, ""));
                    let item = ParsedItem {
                        name: name.trim(),
                        text: text.trim(),
                    };
                    if section == Section::Context {
                        out.context.push(item);
                    } else {
                        out.functions.push(item);
                    }
                }
            }
            // Metric and PromQL lines before the first question line
            // belong to no example and are dropped.
            Section::Examples => {
                if let Some(q) = line.strip_prefix(markers::EX_Q) {
                    out.examples.push(ParsedExample {
                        question: q.trim(),
                        metrics: Vec::new(),
                        promql: "",
                    });
                } else if let Some(ex) = out.examples.last_mut() {
                    if let Some(m) = line.strip_prefix(markers::EX_METRICS) {
                        ex.metrics = m
                            .split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .collect();
                    } else if let Some(p) = line.strip_prefix(markers::EX_PROMQL) {
                        ex.promql = p.trim();
                    }
                }
            }
            Section::Question => push_joined(&mut out.question, line),
            Section::Task => {
                if out.task.is_none() && !line.trim().is_empty() {
                    out.task = TaskKind::from_directive(line.trim());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::{ContextItem, FewShotExample, PromptBuilder};
    use proptest::strategy::TestRng;

    fn built() -> String {
        PromptBuilder::new()
            .system("You are DIO copilot.")
            .context(vec![
                ContextItem {
                    name: "amfcc_reg_attempt".into(),
                    text: "The number of registration attempts.".into(),
                    relevance: 0.9,
                },
                ContextItem {
                    name: "amfcc_reg_success".into(),
                    text: "The number of successful registrations.".into(),
                    relevance: 0.8,
                },
            ])
            .function("success_rate", "computes the success rate")
            .examples(vec![FewShotExample {
                question: "how many paging attempts".into(),
                metrics: vec!["amfcc_paging_attempt".into()],
                promql: "sum(amfcc_paging_attempt)".into(),
            }])
            .question("what is the registration success rate")
            .task(TaskKind::GeneratePromql)
            .build(32_000, 1000)
            .text
    }

    #[test]
    fn round_trips_all_sections() {
        let text = built();
        let p = parse_prompt(&text);
        assert_eq!(p.system, "You are DIO copilot.");
        assert_eq!(p.context.len(), 2);
        assert_eq!(p.context[0].name, "amfcc_reg_attempt");
        assert!(p.context[0].text.contains("registration attempts"));
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.examples.len(), 1);
        assert_eq!(p.examples[0].metrics, vec!["amfcc_paging_attempt"]);
        assert_eq!(p.examples[0].promql, "sum(amfcc_paging_attempt)");
        assert_eq!(p.question, "what is the registration success rate");
        assert_eq!(p.task, Some(TaskKind::GeneratePromql));
    }

    #[test]
    fn names_only_context_parses() {
        let text = format!(
            "{}\nschema\n\n{}\n{}metric_a\n{}metric_b\n\n{}\nq\n\n{}\n{}\n",
            markers::SYSTEM,
            markers::CONTEXT,
            markers::ITEM,
            markers::ITEM,
            markers::QUESTION,
            markers::TASK,
            TaskKind::GeneratePromql.directive(),
        );
        let p = parse_prompt(&text);
        assert_eq!(p.context.len(), 2);
        assert_eq!(p.context[0].name, "metric_a");
        assert!(p.context[0].text.is_empty());
    }

    #[test]
    fn empty_prompt_parses_empty() {
        let p = parse_prompt("");
        assert!(p.context.is_empty());
        assert!(p.question.is_empty());
        assert_eq!(p.task, None);
    }

    #[test]
    fn multiple_examples_parse() {
        let text = format!(
            "{}\n{}q1\n{}m1\n{}sum(m1)\n{}q2\n{}m2, m3\n{}avg(m2)\n",
            markers::EXAMPLES,
            markers::EX_Q,
            markers::EX_METRICS,
            markers::EX_PROMQL,
            markers::EX_Q,
            markers::EX_METRICS,
            markers::EX_PROMQL,
        );
        let p = parse_prompt(&text);
        assert_eq!(p.examples.len(), 2);
        assert_eq!(p.examples[1].metrics, vec!["m2", "m3"]);
    }

    /// The owned parser this module shipped before it borrowed, kept
    /// verbatim as the oracle.
    mod reference {
        use super::*;

        #[derive(Debug, Clone, PartialEq, Eq)]
        pub(super) struct ParsedItem {
            pub name: String,
            pub text: String,
        }

        #[derive(Debug, Clone, PartialEq, Default)]
        pub(super) struct ParsedPrompt {
            pub system: String,
            pub context: Vec<ParsedItem>,
            pub functions: Vec<ParsedItem>,
            pub examples: Vec<FewShotExample>,
            pub question: String,
            pub task: Option<TaskKind>,
        }

        pub(super) fn parse_prompt(text: &str) -> ParsedPrompt {
            let mut out = ParsedPrompt::default();
            let mut section = Section::None;
            let mut pending_example: Option<FewShotExample> = None;

            for line in text.lines() {
                match line.trim_end() {
                    l if l == markers::SYSTEM => {
                        section = Section::System;
                        continue;
                    }
                    l if l == markers::CONTEXT => {
                        section = Section::Context;
                        continue;
                    }
                    l if l == markers::FUNCTIONS => {
                        section = Section::Functions;
                        continue;
                    }
                    l if l == markers::EXAMPLES => {
                        section = Section::Examples;
                        continue;
                    }
                    l if l == markers::QUESTION => {
                        section = Section::Question;
                        continue;
                    }
                    l if l == markers::TASK => {
                        section = Section::Task;
                        continue;
                    }
                    _ => {}
                }
                match section {
                    Section::None => {}
                    Section::System => {
                        if !line.trim().is_empty() {
                            if !out.system.is_empty() {
                                out.system.push(' ');
                            }
                            out.system.push_str(line.trim());
                        }
                    }
                    Section::Context | Section::Functions => {
                        if let Some(rest) = line.strip_prefix(markers::ITEM) {
                            let (name, text) = match rest.split_once(": ") {
                                Some((n, t)) => (n.trim().to_string(), t.trim().to_string()),
                                None => (rest.trim().to_string(), String::new()),
                            };
                            let item = ParsedItem { name, text };
                            if section == Section::Context {
                                out.context.push(item);
                            } else {
                                out.functions.push(item);
                            }
                        }
                    }
                    Section::Examples => {
                        if let Some(q) = line.strip_prefix(markers::EX_Q) {
                            if let Some(ex) = pending_example.take() {
                                out.examples.push(ex);
                            }
                            pending_example = Some(FewShotExample {
                                question: q.trim().to_string(),
                                metrics: Vec::new(),
                                promql: String::new(),
                            });
                        } else if let Some(m) = line.strip_prefix(markers::EX_METRICS) {
                            if let Some(ex) = pending_example.as_mut() {
                                ex.metrics = m
                                    .split(',')
                                    .map(|s| s.trim().to_string())
                                    .filter(|s| !s.is_empty())
                                    .collect();
                            }
                        } else if let Some(p) = line.strip_prefix(markers::EX_PROMQL) {
                            if let Some(ex) = pending_example.as_mut() {
                                ex.promql = p.trim().to_string();
                            }
                        }
                    }
                    Section::Question => {
                        if !line.trim().is_empty() {
                            if !out.question.is_empty() {
                                out.question.push(' ');
                            }
                            out.question.push_str(line.trim());
                        }
                    }
                    Section::Task => {
                        if out.task.is_none() && !line.trim().is_empty() {
                            out.task = TaskKind::from_directive(line.trim());
                        }
                    }
                }
            }
            if let Some(ex) = pending_example.take() {
                out.examples.push(ex);
            }
            out
        }
    }

    /// The borrowed parse, copied out into the oracle's owned types.
    fn owned(p: &ParsedPrompt<'_>) -> reference::ParsedPrompt {
        let items = |items: &[ParsedItem<'_>]| {
            items
                .iter()
                .map(|i| reference::ParsedItem {
                    name: i.name.to_string(),
                    text: i.text.to_string(),
                })
                .collect()
        };
        reference::ParsedPrompt {
            system: p.system.clone(),
            context: items(&p.context),
            functions: items(&p.functions),
            examples: p
                .examples
                .iter()
                .map(|e| FewShotExample {
                    question: e.question.to_string(),
                    metrics: e.metrics.iter().map(|m| m.to_string()).collect(),
                    promql: e.promql.to_string(),
                })
                .collect(),
            question: p.question.clone(),
            task: p.task,
        }
    }

    fn assert_matches_reference(text: &str) {
        assert_eq!(
            owned(&parse_prompt(text)),
            reference::parse_prompt(text),
            "{text:?}"
        );
    }

    const TASKS: [TaskKind; 5] = [
        TaskKind::IdentifyMetrics,
        TaskKind::GeneratePromql,
        TaskKind::RepairPromql,
        TaskKind::GenerateDashboard,
        TaskKind::AnswerDirectly,
    ];

    /// Text fragments a prompt line is assembled from: markers and
    /// prefixes (whole, doubled, cut short), separators, and noise.
    const FRAGMENTS: &[&str] = &[
        markers::SYSTEM,
        markers::CONTEXT,
        markers::FUNCTIONS,
        markers::EXAMPLES,
        markers::QUESTION,
        markers::TASK,
        markers::ITEM,
        markers::EX_Q,
        markers::EX_METRICS,
        markers::EX_PROMQL,
        "<<ITEM>>",
        "### ",
        ": ",
        ":",
        ",",
        ", ,",
        " ",
        "  ",
        "\t",
        "amfcc_n1_auth",
        "m2",
        "sum(m1)",
        "The number of Σ İ ß requests.",
        "Generate a PromQL query",
    ];

    fn line_soup(rng: &mut TestRng, eol: &str) -> String {
        let mut text = String::new();
        for _ in 0..rng.below(40) {
            for _ in 0..rng.below(4) {
                text.push_str(FRAGMENTS[rng.below(FRAGMENTS.len())]);
            }
            if rng.below(8) == 0 {
                text.push_str(TASKS[rng.below(TASKS.len())].directive());
            }
            text.push_str(eol);
        }
        text
    }

    proptest::proptest! {
        #[test]
        fn borrowed_parse_matches_the_owned_reference_on_built_prompts(
            names in proptest::prop::collection::vec("[a-zA-Z0-9_:]{0,12}", 0..8),
            texts in proptest::prop::collection::vec(".{0,30}", 8..9),
            examples in 0usize..4,
            functions in 0usize..3,
            question in ".{0,40}",
            system in ".{0,40}",
            task in 0usize..5,
            window in 0usize..2_000,
        ) {
            let mut builder = PromptBuilder::new()
                .system(system)
                .context(names.iter().zip(&texts).map(|(n, t)| ContextItem {
                    name: n.clone(),
                    text: t.clone(),
                    relevance: 0.5,
                }))
                .examples((0..examples).map(|i| FewShotExample {
                    question: texts[i].clone(),
                    metrics: names.iter().take(i).cloned().collect(),
                    promql: format!("sum({})", texts[i + 1]),
                }))
                .question(question)
                .task(TASKS[task]);
            for (i, text) in texts.iter().enumerate().take(functions) {
                builder = builder.function(format!("fn_{i}"), text.clone());
            }
            let text = builder.build(window, 100).text;
            assert_matches_reference(&text);
            // The same prompt over CRLF, and with marker lines padded.
            assert_matches_reference(&text.replace('\n', "\r\n"));
            assert_matches_reference(&text.replace("\n###", " \t\n###").replace("### CONTEXT", "### CONTEXT  "));
        }

        #[test]
        fn borrowed_parse_matches_the_owned_reference_on_line_soup(seed in proptest::prelude::any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let eol = ["\n", "\r\n", " \n"][rng.below(3)];
            assert_matches_reference(&line_soup(&mut rng, eol));
        }
    }

    #[test]
    fn hand_built_names_only_prompt_matches_the_reference() {
        // The baselines' shape: names without descriptions, no examples.
        let mut text = format!("{}\nschema\n\n{}\n", markers::SYSTEM, markers::CONTEXT);
        for i in 0..600 {
            text.push_str(&format!("{}metric_{i}\n", markers::ITEM));
        }
        text.push_str(&format!(
            "\n{} \nhow many\n  metric_3 events?\n\n{}\n{}\n",
            markers::QUESTION,
            markers::TASK,
            TaskKind::GeneratePromql.directive()
        ));
        assert_matches_reference(&text);
        assert_eq!(parse_prompt(&text).context.len(), 600);
        assert_eq!(parse_prompt(&text).question, "how many metric_3 events?");
    }
}
