//! PromQL generation: few-shot templates, naive fallbacks, and name
//! fabrication.
//!
//! With few-shot exemplars in the prompt, the simulated model applies
//! the canonical query template for the detected task shape (degraded
//! at a tier-dependent rate). Without exemplars it emits the naive
//! guesses a general-purpose model produces: bare selectors, missing
//! aggregations, missing `100 *` factors. When a needed metric is not
//! in the prompt's context, the model *fabricates* a name from the
//! question words and the naming conventions it can infer from whatever
//! names it did see — reproducing the paper's §4.2.3 DIN-SQL example,
//! which fabricated `amfcc lcs ni lr success` instead of the real
//! spelled-out counter.

use crate::sim::noise;
use crate::sim::reason::{QuestionAnalysis, RoleNeed, TaskShape, IFACE_TAGS, NF_PREFIXES};
use crate::sim::select::Selection;
use dio_embed::WordBuf;

/// Tier-dependent code-generation behaviour.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CodegenConfig<'a> {
    /// Probability of applying the correct template when exemplars
    /// cover the shape.
    pub template_strength: f64,
    /// Probability of guessing a correct template with *no* exemplars.
    pub naive_strength: f64,
    /// Model name for deterministic noise.
    pub model_name: &'a str,
}

/// Generate a PromQL expression for the analysed question.
///
/// `selections` come from [`crate::sim::select::select_metrics`];
/// `covered_shapes` says which task shapes the prompt's exemplars
/// demonstrate; `schema_names` are the context names available for
/// convention inference during fabrication.
pub(crate) fn generate_promql(
    analysis: &QuestionAnalysis,
    selections: &[Selection],
    examples_present: bool,
    shape_covered: bool,
    schema_names: &[&str],
    cfg: &CodegenConfig<'_>,
    question: &str,
) -> String {
    // Resolve one metric name per role, fabricating when selection
    // found nothing plausible in context. Fabrication for the
    // attempt/success/duration roles of a failure question drops the
    // cause words: the model reconstructs the procedure's base counter
    // by convention from whatever sibling it did see.
    let cause_word = |t: &String| analysis.cause_tokens.iter().any(|set| set.contains(t));
    let names: Vec<String> = selections
        .iter()
        .map(|sel| match &sel.name {
            Some(n) => n.clone(),
            None => match sel.role {
                RoleNeed::FailureCause { index } => {
                    // The cause words become the suffix; words of any
                    // *other* mentioned cause are dropped entirely.
                    let own: &[String] = analysis
                        .cause_tokens
                        .get(index)
                        .map(|v| v.as_slice())
                        .unwrap_or(&[]);
                    let tokens: Vec<String> = analysis
                        .tokens
                        .iter()
                        .filter(|t| own.contains(t) || !cause_word(t))
                        .cloned()
                        .collect();
                    fabricate_with_cause(&tokens, &sel.role, Some(own), schema_names)
                }
                RoleNeed::Any => fabricate_name(&analysis.tokens, &sel.role, schema_names),
                _ => {
                    let tokens: Vec<String> = analysis
                        .tokens
                        .iter()
                        .filter(|t| !cause_word(t))
                        .cloned()
                        .collect();
                    fabricate_name(&tokens, &sel.role, schema_names)
                }
            },
        })
        .collect();

    if examples_present {
        let strength = if shape_covered {
            cfg.template_strength
        } else {
            // Generalising to an undemonstrated shape is harder.
            cfg.template_strength * 0.85
        };
        if noise::coin(&[question, cfg.model_name, "template"], strength) {
            canonical_template(analysis.shape, &names)
        } else {
            degraded_template(analysis.shape, &names, question, cfg.model_name)
        }
    } else if noise::coin(&[question, cfg.model_name, "naive"], cfg.naive_strength) {
        canonical_template(analysis.shape, &names)
    } else {
        naive_template(analysis.shape, &names)
    }
}

/// The `i`-th resolved name, for the templates below.
fn name_at(names: &[String], i: usize) -> String {
    names
        .get(i)
        .cloned()
        .unwrap_or_else(|| "unknown_metric".into())
}

/// The canonical expression per shape — what the few-shot exemplars
/// demonstrate and what the benchmark references use.
pub(crate) fn canonical_template(shape: TaskShape, names: &[String]) -> String {
    let n = |i| name_at(names, i);
    match shape {
        TaskShape::CurrentValue | TaskShape::TotalCount => format!("sum({})", n(0)),
        TaskShape::AverageValue => format!("avg({})", n(0)),
        TaskShape::RatePerSecond => format!("sum(rate({}[5m]))", n(0)),
        TaskShape::SuccessRatePercent => format!("100 * sum({}) / sum({})", n(0), n(1)),
        TaskShape::FailureRatio => format!("sum({}) / sum({})", n(0), n(1)),
        TaskShape::CombinedFailureRatio => {
            format!("(sum({}) + sum({})) / sum({})", n(0), n(1), n(2))
        }
        TaskShape::MeanDurationMs => format!("sum({}) / sum({})", n(0), n(1)),
    }
}

/// A deterministic wrong-but-plausible variant (template noise).
fn degraded_template(shape: TaskShape, names: &[String], question: &str, model: &str) -> String {
    let n = |i| name_at(names, i);
    let variant = noise::pick(&[question, model, "degrade"], 3);
    match shape {
        TaskShape::CurrentValue | TaskShape::TotalCount => match variant {
            0 => format!("avg({})", n(0)),
            1 => n(0),
            _ => format!("count({})", n(0)),
        },
        TaskShape::AverageValue => match variant {
            0 => format!("sum({})", n(0)),
            1 => n(0),
            _ => format!("max({})", n(0)),
        },
        TaskShape::RatePerSecond => match variant {
            0 => format!("sum(rate({}[1m]))", n(0)),
            1 => format!("rate({}[5m])", n(0)),
            _ => format!("sum(increase({}[5m]))", n(0)),
        },
        TaskShape::SuccessRatePercent => match variant {
            0 => format!("sum({}) / sum({})", n(0), n(1)),
            1 => format!("100 * sum({}) / sum({})", n(1), n(0)),
            _ => format!("100 * avg({}) / sum({})", n(0), n(1)),
        },
        TaskShape::FailureRatio => match variant {
            0 => format!("100 * sum({}) / sum({})", n(0), n(1)),
            1 => format!("{} / {}", n(0), n(1)),
            _ => format!("sum({}) / sum({})", n(1), n(0)),
        },
        TaskShape::CombinedFailureRatio => match variant {
            0 => format!("sum({}) / sum({})", n(0), n(2)),
            1 => format!("(sum({}) + sum({})) / sum({})", n(0), n(1), n(0)),
            _ => format!("(avg({}) + avg({})) / avg({})", n(0), n(1), n(2)),
        },
        TaskShape::MeanDurationMs => match variant {
            0 => format!("avg({})", n(0)),
            1 => format!("sum({}) / sum({})", n(1), n(0)),
            _ => format!("{} / {}", n(0), n(1)),
        },
    }
}

/// What a capable general model produces with *no* exemplars: missing
/// aggregation wrappers and missing unit factors.
fn naive_template(shape: TaskShape, names: &[String]) -> String {
    let n = |i| name_at(names, i);
    match shape {
        TaskShape::CurrentValue | TaskShape::TotalCount => n(0),
        TaskShape::AverageValue => n(0),
        TaskShape::RatePerSecond => format!("rate({}[5m])", n(0)),
        TaskShape::SuccessRatePercent => format!("sum({}) / sum({})", n(0), n(1)),
        TaskShape::FailureRatio | TaskShape::MeanDurationMs => format!("{} / {}", n(0), n(1)),
        TaskShape::CombinedFailureRatio => format!("({} + {}) / {}", n(0), n(1), n(2)),
    }
}

/// Words that describe the task or the counter role rather than the
/// procedure, excluded from fabricated names.
const ROLE_WORDS: &[&str] = &[
    "attempt", "attempts", "attempted", "success", "successful", "successfully", "succeeded",
    "rate", "percentage", "percent", "fraction", "ratio", "share", "failed", "failure",
    "failures", "fail", "duration", "mean", "average", "total", "number", "count", "many",
    "second", "currently", "current", "moment", "handle", "handled", "handling", "receive",
    "received", "sent", "send", "observe", "observed", "per", "how", "what", "did", "procedure",
    "procedures", "right", "now", "due", "cause", "either", "times", "try", "tries", "tried",
    "each", "record", "recorded", "frequency", "volume",
    "forward", "forwarded", "transmitted", "completed", "long", "much", "interface", "reference", "point",
];

/// The most common first segment among schema names belonging to the
/// NF the question mentions.
fn nf_prefix_fallback(tokens: &[String], schema_names: &[&str]) -> Option<String> {
    let nf = NF_PREFIXES
        .iter()
        .copied()
        .find(|p| tokens.iter().any(|t| t == p))?;
    let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for name in schema_names {
        let first = name.split('_').next().unwrap_or("");
        if first.starts_with(nf) && first.len() > nf.len() {
            *counts.entry(first).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(p, c)| (c, std::cmp::Reverse(p.len()), p.to_string()))
        .map(|(p, _)| p.to_string())
}

/// Tokens that, like the [`NF_PREFIXES`], are carried by the inferred
/// prefix, not the phrase.
const PREFIX_WORDS: &[&str] = &["instance", "instances", "pfcp", "gtp", "u"];

/// Fabricate a metric name from question words plus naming conventions
/// inferred from the visible schema names (the model's "pretraining
/// knowledge" of vendor conventions).
pub(crate) fn fabricate_name(tokens: &[String], role: &RoleNeed, schema_names: &[&str]) -> String {
    fabricate_with_cause(tokens, role, None, schema_names)
}

/// [`fabricate_name`] with an explicit cause phrase: the cause words
/// become the `_failure_<cause>` suffix instead of polluting the
/// procedure segment.
pub(crate) fn fabricate_with_cause(
    tokens: &[String],
    role: &RoleNeed,
    cause_tokens: Option<&[String]>,
    schema_names: &[&str],
) -> String {
    // 1. The procedure phrase: question tokens minus role/task/NF words
    //    (and minus cause words, which belong in the suffix).
    let phrase: Vec<String> = tokens
        .iter()
        .filter(|t| {
            !ROLE_WORDS.contains(&t.as_str())
                && !NF_PREFIXES.contains(&t.as_str())
                && !PREFIX_WORDS.contains(&t.as_str())
                && cause_tokens.map_or(true, |c| !c.contains(t))
        })
        .cloned()
        .collect();

    // 2. Suffix from the role.
    let mut suffix = match role {
        RoleNeed::Any => String::new(),
        RoleNeed::Attempt => "_attempt".to_string(),
        RoleNeed::Success => "_success".to_string(),
        RoleNeed::FailureCause { .. } => match cause_tokens {
            Some(c) if !c.is_empty() => format!("_failure_{}", c.join("_")),
            _ => "_failure".to_string(),
        },
        RoleNeed::Duration => "_duration_ms_total".to_string(),
    };
    // Naming-convention suffix inference for Any-role questions: the
    // model knows vendor conventions well enough to append the right
    // outcome segment (this is exactly how the paper's DIN-SQL example
    // fabricated `…_success`).
    if matches!(role, RoleNeed::Any) {
        let has = |t: &str| tokens.iter().any(|x| x == t);
        if has("sent") || has("send") || has("transmitted") {
            suffix = "_sent".to_string();
        } else if has("received") || has("receive") {
            suffix = "_received".to_string();
        } else if has("currently") || has("current") || has("moment") {
            suffix = "_current".to_string();
        } else if has("procedure")
            || has("procedures")
            || has("attempts")
            || has("attempt")
            || has("times")
            || has("try")
            || has("tries")
            || has("rate")
            || has("frequency")
        {
            suffix = "_attempt".to_string();
        }
    }

    // 3. Prefix inference: find the schema name sharing the most phrase
    //    tokens and reuse its leading segments (service prefix +
    //    interface) up to the first shared token.
    let mut best: Option<(usize, &str)> = None;
    let mut name_words = WordBuf::new();
    for &name in schema_names {
        let range = name_words.push_text(name);
        let overlap = phrase
            .iter()
            .filter(|p| name_words.words(range.clone()).any(|w| w == *p))
            .count();
        if overlap > 0 {
            match best {
                Some((b, _)) if b >= overlap => {}
                _ => best = Some((overlap, name)),
            }
        }
    }
    let prefix = match best {
        Some((_, name)) => {
            let segs: Vec<&str> = name.split('_').collect();
            let first_match = segs
                .iter()
                .position(|s| phrase.iter().any(|p| p == s))
                .unwrap_or(0);
            // A vendor prefix is at most the NF+service segment plus an
            // interface tag; anything further belongs to a *different*
            // procedure's slug and must not leak into the fabrication.
            let mut take = first_match.min(1);
            if first_match >= 1 && segs.len() >= 2 && IFACE_TAGS.contains(&segs[1]) {
                take = 2;
            }
            segs[..take].join("_")
        }
        None => {
            // No overlapping sibling: if the question names an NF, fall
            // back to its most common schema prefix (first segment).
            nf_prefix_fallback(tokens, schema_names).unwrap_or_default()
        }
    };

    let body = phrase.join("_");
    match (prefix.is_empty(), body.is_empty()) {
        (true, true) => format!("unknown{suffix}"),
        (true, false) => format!("{body}{suffix}"),
        (false, true) => format!("{prefix}{suffix}"),
        (false, false) => format!("{prefix}_{body}{suffix}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::reason::analyze;
    use crate::sim::select::Selection;

    fn sel(role: RoleNeed, name: Option<&str>) -> Selection {
        Selection {
            role,
            name: name.map(|s| s.to_string()),
            confidence: 0.8,
        }
    }

    fn cfg(t: f64, n: f64) -> CodegenConfig<'static> {
        CodegenConfig {
            template_strength: t,
            naive_strength: n,
            model_name: "gpt-4-sim",
        }
    }

    #[test]
    fn canonical_templates_per_shape() {
        let names = vec!["s".to_string(), "a".to_string(), "b".to_string()];
        assert_eq!(canonical_template(TaskShape::TotalCount, &names), "sum(s)");
        assert_eq!(canonical_template(TaskShape::AverageValue, &names), "avg(s)");
        assert_eq!(
            canonical_template(TaskShape::RatePerSecond, &names),
            "sum(rate(s[5m]))"
        );
        assert_eq!(
            canonical_template(TaskShape::SuccessRatePercent, &names),
            "100 * sum(s) / sum(a)"
        );
        assert_eq!(
            canonical_template(TaskShape::CombinedFailureRatio, &names),
            "(sum(s) + sum(a)) / sum(b)"
        );
    }

    #[test]
    fn strong_model_with_examples_uses_canonical() {
        let q = "What is the initial registration success rate?";
        let a = analyze(q);
        let sels = vec![
            sel(RoleNeed::Success, Some("reg_success")),
            sel(RoleNeed::Attempt, Some("reg_attempt")),
        ];
        let out = generate_promql(&a, &sels, true, true, &[], &cfg(1.0, 0.3), q);
        assert_eq!(out, "100 * sum(reg_success) / sum(reg_attempt)");
    }

    #[test]
    fn zero_strength_degrades() {
        let q = "What is the initial registration success rate?";
        let a = analyze(q);
        let sels = vec![
            sel(RoleNeed::Success, Some("reg_success")),
            sel(RoleNeed::Attempt, Some("reg_attempt")),
        ];
        let out = generate_promql(&a, &sels, true, true, &[], &cfg(0.0, 0.3), q);
        assert_ne!(out, "100 * sum(reg_success) / sum(reg_attempt)");
        // Still a plausible expression referencing the metrics.
        assert!(out.contains("reg_success") || out.contains("reg_attempt"));
    }

    #[test]
    fn no_examples_naive_misses_aggregation() {
        let q = "How many paging attempts did the AMF handle?";
        let a = analyze(q);
        let sels = vec![sel(RoleNeed::Any, Some("amfcc_n2_paging_attempt"))];
        let out = generate_promql(&a, &sels, false, false, &[], &cfg(0.9, 0.0), q);
        assert_eq!(out, "amfcc_n2_paging_attempt");
    }

    #[test]
    fn fabricates_paperlike_name_from_question_words() {
        // The §4.2.3 example: DIN-SQL fabricated the abbreviated form.
        let q = "What is the LCS NI-LR procedure success rate?";
        let a = analyze(q);
        let name = fabricate_name(&a.tokens, &RoleNeed::Success, &[]);
        assert_eq!(name, "lcs_ni_lr_success");
    }

    #[test]
    fn fabrication_infers_prefix_from_sibling_names() {
        let q = "How many initial registration attempts did the AMF handle?";
        let a = analyze(q);
        let schema = ["amfcc_n1_registration_request_sent", "upfup_n3_ul_bytes"];
        let name = fabricate_name(&a.tokens, &RoleNeed::Attempt, &schema);
        assert_eq!(name, "amfcc_n1_initial_registration_attempt");
    }

    #[test]
    fn fabrication_without_schema_glues_tokens() {
        let q = "How many NF discovery requests did the NRF receive?";
        let a = analyze(q);
        let name = fabricate_name(&a.tokens, &RoleNeed::Any, &[]);
        assert_eq!(name, "nf_discovery_requests_received");
    }

    #[test]
    fn generation_is_deterministic() {
        let q = "What fraction of PDU session establishments failed due to congestion?";
        let a = analyze(q);
        let sels = vec![
            sel(RoleNeed::FailureCause { index: 0 }, Some("f")),
            sel(RoleNeed::Attempt, Some("at")),
        ];
        let c = cfg(0.8, 0.3);
        let o1 = generate_promql(&a, &sels, true, true, &[], &c, q);
        let o2 = generate_promql(&a, &sels, true, true, &[], &c, q);
        assert_eq!(o1, o2);
    }

    #[test]
    fn generated_canonical_parses_as_promql_shape() {
        // Smoke-check the string forms look like PromQL (full parsing is
        // integration-tested against dio-promql).
        let names = vec!["m1".to_string(), "m2".to_string(), "m3".to_string()];
        for shape in [
            TaskShape::CurrentValue,
            TaskShape::TotalCount,
            TaskShape::AverageValue,
            TaskShape::RatePerSecond,
            TaskShape::SuccessRatePercent,
            TaskShape::FailureRatio,
            TaskShape::CombinedFailureRatio,
            TaskShape::MeanDurationMs,
        ] {
            let s = canonical_template(shape, &names);
            assert!(s.contains("m1"), "{s}");
            assert_eq!(s.matches('(').count(), s.matches(')').count(), "{s}");
        }
    }
}
