//! Question understanding: task shape and key phrases.
//!
//! Mirrors the analytics tasks the paper's benchmark spans ("retrieval,
//! averaging, sum and rate … up-to three metrics in a single
//! expression", §4.1) plus the derived-KPI shapes its examples discuss
//! (success rates, failure causes, mean durations).

use dio_embed::content_words;

/// The analytic shape a question asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskShape {
    /// Current level of a gauge (or total of a counter): `sum(m)`.
    CurrentValue,
    /// Accumulated event count: `sum(m)`.
    TotalCount,
    /// Mean across instances: `avg(m)`.
    AverageValue,
    /// Events per second over 5 minutes: `sum(rate(m[5m]))`.
    RatePerSecond,
    /// `100 * sum(success) / sum(attempt)`.
    SuccessRatePercent,
    /// `sum(failure_cause) / sum(attempt)`.
    FailureRatio,
    /// `(sum(f1) + sum(f2)) / sum(attempt)` — the benchmark's
    /// three-metric expressions.
    CombinedFailureRatio,
    /// `sum(duration_ms_total) / sum(success)`.
    MeanDurationMs,
}

impl TaskShape {
    /// How many metrics the canonical expression references.
    pub fn metric_count(&self) -> usize {
        match self {
            TaskShape::CurrentValue
            | TaskShape::TotalCount
            | TaskShape::AverageValue
            | TaskShape::RatePerSecond => 1,
            TaskShape::SuccessRatePercent
            | TaskShape::FailureRatio
            | TaskShape::MeanDurationMs => 2,
            TaskShape::CombinedFailureRatio => 3,
        }
    }
}

/// The metric roles a shape needs, matched against name tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoleNeed {
    /// Any single metric (retrieval/sum/avg/rate questions).
    Any,
    /// A `*_success` counter.
    Success,
    /// An `*_attempt` counter.
    Attempt,
    /// A `*_failure_<cause>` counter; the cause phrase narrows it.
    FailureCause {
        /// Which cause mention in the question (0 = first, 1 = second).
        index: usize,
    },
    /// A `*_duration_ms_total` counter.
    Duration,
}

/// Analysis of one user question.
#[derive(Debug, Clone, PartialEq)]
pub struct QuestionAnalysis {
    /// Detected task shape.
    pub shape: TaskShape,
    /// Content words of the question (lower-cased, stopwords removed).
    pub tokens: Vec<String>,
    /// `tokens` minus the task-cue words consumed by shape detection —
    /// the part of the question that names the *entity*, used for
    /// scoring candidates.
    pub phrase_tokens: Vec<String>,
    /// Failure-cause phrases extracted from "failed due to X" / "failed
    /// with cause 'X'" / "either with X or with Y" constructions, in
    /// mention order.
    pub cause_phrases: Vec<String>,
    /// The content words of each cause phrase, in the same order.
    pub cause_tokens: Vec<Vec<String>>,
    /// Roles to select, in canonical expression order.
    pub roles: Vec<RoleNeed>,
}

/// Words that cue the task shape rather than naming the entity. They
/// are excluded from candidate scoring: every admitted candidate for a
/// role would match (or miss) them identically.
pub(crate) const TASK_CUE_WORDS: &[&str] = &[
    "success", "successful", "successfully", "succeeded", "rate", "rates", "percentage",
    "percent", "fraction", "ratio", "share", "failed", "failure", "failures", "fail",
    "average", "mean", "duration", "durations", "total", "currently", "current", "moment",
    "per", "second", "many", "much", "how", "what", "number", "count", "value", "long",
];

/// Network-function prefixes recognised in metric names and questions.
pub(crate) const NF_PREFIXES: &[&str] = &["amf", "smf", "nrf", "nssf", "n3iwf", "upf"];

/// Interface tags recognised in metric names and questions.
pub(crate) const IFACE_TAGS: &[&str] = &["n1", "n2", "n3", "n4", "n6", "n7", "n9", "n11", "nwu"];

/// The task shape alone — all the model reads of a few-shot exemplar's
/// question.
pub(crate) fn shape_of(question: &str) -> TaskShape {
    shape_of_lower(&question.to_lowercase())
}

fn shape_of_lower(lower: &str) -> TaskShape {
    let has = |phrase: &str| lower.contains(phrase);
    if has("success rate") || (has("percent") && has("success")) {
        TaskShape::SuccessRatePercent
    } else if (has("fraction") || has("ratio") || has("share")) && (has("fail") || has("reject"))
    {
        if has(" or with ") || has(" or due to ") || has("either") {
            TaskShape::CombinedFailureRatio
        } else {
            TaskShape::FailureRatio
        }
    } else if (has("average") || has("mean")) && has("duration") {
        TaskShape::MeanDurationMs
    } else if has("per second") || has("per-second") || has("rate of") {
        TaskShape::RatePerSecond
    } else if has("average") || has("mean") {
        TaskShape::AverageValue
    } else if has("currently") || has("right now") || has("at the moment") || has("current") {
        TaskShape::CurrentValue
    } else {
        TaskShape::TotalCount
    }
}

/// Analyse a question deterministically from keyword cues.
pub fn analyze(question: &str) -> QuestionAnalysis {
    let lower = question.to_lowercase();
    let tokens = content_words(&lower);
    let shape = shape_of_lower(&lower);

    let roles = match shape {
        TaskShape::CurrentValue
        | TaskShape::TotalCount
        | TaskShape::AverageValue
        | TaskShape::RatePerSecond => vec![RoleNeed::Any],
        TaskShape::SuccessRatePercent => vec![RoleNeed::Success, RoleNeed::Attempt],
        TaskShape::FailureRatio => {
            vec![RoleNeed::FailureCause { index: 0 }, RoleNeed::Attempt]
        }
        TaskShape::CombinedFailureRatio => vec![
            RoleNeed::FailureCause { index: 0 },
            RoleNeed::FailureCause { index: 1 },
            RoleNeed::Attempt,
        ],
        TaskShape::MeanDurationMs => vec![RoleNeed::Duration, RoleNeed::Success],
    };

    let phrase_tokens: Vec<String> = tokens
        .iter()
        .filter(|t| !TASK_CUE_WORDS.contains(&t.as_str()))
        .cloned()
        .collect();

    let cause_phrases = extract_cause_phrases(&lower);
    QuestionAnalysis {
        shape,
        tokens,
        phrase_tokens,
        cause_tokens: cause_phrases.iter().map(|p| content_words(p)).collect(),
        cause_phrases,
        roles,
    }
}

/// Pull the failure-cause phrases out of the question text.
fn extract_cause_phrases(lower: &str) -> Vec<String> {
    let mut out = Vec::new();
    let trim_tail = |s: &str| {
        s.trim()
            .trim_end_matches(['?', '.', '!'])
            .trim_matches('\'')
            .trim()
            .to_string()
    };
    if let Some(idx) = lower.find("either with ") {
        let rest = &lower[idx + "either with ".len()..];
        if let Some(or_idx) = rest.find(" or with ") {
            out.push(trim_tail(&rest[..or_idx]));
            out.push(trim_tail(&rest[or_idx + " or with ".len()..]));
            return out;
        }
    }
    if let Some(idx) = lower.find("due to ") {
        out.push(trim_tail(&lower[idx + "due to ".len()..]));
    } else if let Some(idx) = lower.find("with cause ") {
        out.push(trim_tail(&lower[idx + "with cause ".len()..]));
    } else if let Some(idx) = lower.find("failed with ") {
        out.push(trim_tail(&lower[idx + "failed with ".len()..]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_success_rate() {
        let a = analyze("What is the initial registration procedure success rate at the AMF?");
        assert_eq!(a.shape, TaskShape::SuccessRatePercent);
        assert_eq!(a.roles.len(), 2);
        assert!(a.tokens.contains(&"registration".to_string()));
    }

    #[test]
    fn detects_rate_per_second() {
        let a = analyze("How many authentication requests per second is the AMF handling?");
        assert_eq!(a.shape, TaskShape::RatePerSecond);
        let a = analyze("What is the rate of PDU session establishments?");
        assert_eq!(a.shape, TaskShape::RatePerSecond);
    }

    #[test]
    fn detects_average() {
        let a = analyze("What is the average number of paging attempts per AMF instance?");
        assert_eq!(a.shape, TaskShape::AverageValue);
    }

    #[test]
    fn detects_mean_duration() {
        let a = analyze("What is the mean duration of the N4 session establishment procedure?");
        assert_eq!(a.shape, TaskShape::MeanDurationMs);
        assert_eq!(a.roles, vec![RoleNeed::Duration, RoleNeed::Success]);
    }

    #[test]
    fn detects_failure_ratio() {
        let a = analyze("What fraction of PDU session establishments failed due to congestion?");
        assert_eq!(a.shape, TaskShape::FailureRatio);
        assert_eq!(a.cause_phrases, vec!["congestion"]);
    }

    #[test]
    fn extracts_quoted_cause_phrase() {
        let a = analyze(
            "What share of mobility register update procedures failed with cause 'tracking area not allowed'?",
        );
        assert_eq!(a.cause_phrases, vec!["tracking area not allowed"]);
    }

    #[test]
    fn extracts_two_causes_for_combined() {
        let a = analyze(
            "What share of service requests failed either with congestion or with timer expiry?",
        );
        assert_eq!(a.cause_phrases, vec!["congestion", "timer expiry"]);
    }

    #[test]
    fn no_cause_phrases_for_plain_questions() {
        let a = analyze("How many paging attempts did the AMF handle?");
        assert!(a.cause_phrases.is_empty());
    }

    #[test]
    fn detects_combined_failure_ratio() {
        let a = analyze(
            "What share of service requests failed either with congestion or with timer expiry?",
        );
        assert_eq!(a.shape, TaskShape::CombinedFailureRatio);
        assert_eq!(a.roles.len(), 3);
        assert_eq!(a.shape.metric_count(), 3);
    }

    #[test]
    fn detects_current_value() {
        let a = analyze("How many PDU sessions are currently active at the SMF?");
        assert_eq!(a.shape, TaskShape::CurrentValue);
    }

    #[test]
    fn defaults_to_total_count() {
        let a = analyze("How many NF discovery requests did the NRF receive?");
        assert_eq!(a.shape, TaskShape::TotalCount);
        assert_eq!(a.roles, vec![RoleNeed::Any]);
    }

    #[test]
    fn analysis_is_deterministic() {
        let q = "what is the handover success rate";
        assert_eq!(analyze(q), analyze(q));
    }

    #[test]
    fn cause_tokens_are_the_content_words_of_each_phrase() {
        let a = analyze(
            "What share of service requests failed either with congestion or with the timer expiry?",
        );
        assert_eq!(
            a.cause_tokens,
            vec![vec!["congestion"], vec!["timer", "expiry"]]
        );
        assert!(analyze("How many paging attempts?").cause_tokens.is_empty());
    }

    /// Cue phrases of the keyword ladder, so generated text reaches
    /// every rung and not only the default.
    const CUES: &[&str] = &[
        "success rate", "percent", "success", "fraction", "ratio", "share", "fail", "reject",
        " or with ", " or due to ", "either", "average", "mean", "duration", "per second",
        "per-second", "rate of", "currently", "right now", "at the moment", "current", "PERCENT",
        "SucCess Rate", "ΟΔΟΣ", "İ",
    ];

    proptest::proptest! {
        #[test]
        fn shape_of_is_the_shape_analyze_detects(
            noise in proptest::prop::collection::vec(".{0,12}", 5..6),
            cues in proptest::prop::collection::vec(0usize..CUES.len(), 0..5),
        ) {
            let mut q = String::new();
            for (i, n) in noise.iter().enumerate() {
                q.push_str(n);
                if let Some(&c) = cues.get(i) {
                    q.push_str(CUES[c]);
                }
            }
            proptest::prop_assert_eq!(shape_of(&q), analyze(&q).shape);
        }
    }
}
