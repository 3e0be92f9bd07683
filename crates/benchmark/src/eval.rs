//! Execution accuracy (EX) evaluation (paper §4.2.2).
//!
//! "Execution accuracy (EX), which measures the percentage of times an
//! approach produced an answer that is numerically matching the
//! reference answer."

use crate::questions::BenchmarkQuestion;
use dio_baselines::NlQuerySystem;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Relative tolerance for "numerically matching". Generated and
/// reference queries run through the same engine, so correct queries
/// match to machine precision; the tolerance only absorbs benign
/// floating-point reassociation.
pub const REL_TOLERANCE: f64 = 1e-9;

/// One question's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuestionOutcome {
    /// Question id.
    pub id: usize,
    /// Whether the produced answer matched the reference numerically.
    pub correct: bool,
    /// The system's query.
    pub query: String,
    /// The system's numeric answer, if any.
    pub numeric: Option<f64>,
    /// The reference numeric answer.
    pub reference: f64,
    /// Error string if the system failed outright.
    pub error: Option<String>,
    /// Repair rounds the system ran on this question.
    pub repairs: usize,
    /// Whether the answer came from a degraded fallback.
    pub degraded: bool,
}

/// Aggregated evaluation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// System label.
    pub system: String,
    /// Number of questions evaluated.
    pub total: usize,
    /// Number answered correctly.
    pub correct: usize,
    /// EX in percent.
    pub ex_percent: f64,
    /// EX per task shape.
    pub per_shape: BTreeMap<String, (usize, usize)>,
    /// EX split by phrasing: (plain correct, plain total, para correct,
    /// para total).
    pub plain_vs_paraphrase: (usize, usize, usize, usize),
    /// Mean inference cost per query in US cents.
    pub mean_cost_cents: f64,
    /// Total repair rounds across all questions (recovery accounting).
    pub repairs_total: usize,
    /// Questions answered by a degraded fallback.
    pub degraded_count: usize,
    /// Per-question outcomes.
    pub outcomes: Vec<QuestionOutcome>,
}

/// Do two numeric answers match?
pub fn numeric_match(answer: f64, reference: f64) -> bool {
    if !answer.is_finite() || !reference.is_finite() {
        return false;
    }
    let scale = reference.abs().max(answer.abs()).max(1e-300);
    (answer - reference).abs() <= REL_TOLERANCE * scale
}

/// Instrument names for the observed evaluation loop.
pub const QUESTIONS_NAME: &str = "dio_benchmark_questions_total";
const QUESTIONS_HELP: &str = "Benchmark questions evaluated, by correctness of the answer.";
/// Per-question inference cost histogram.
pub const QUESTION_COST_NAME: &str = "dio_benchmark_question_cost_cents";
const QUESTION_COST_HELP: &str = "Inference cost of answering one benchmark question, in cents.";

/// Evaluate a system over the benchmark.
pub fn evaluate(
    system: &mut dyn NlQuerySystem,
    questions: &[BenchmarkQuestion],
    eval_ts: i64,
) -> EvalReport {
    evaluate_inner(system, questions, eval_ts, None)
}

/// Like [`evaluate`], but also account per-question throughput and cost
/// into a [`dio_obs::Registry`] — the benchmark-side share of the
/// copilot's self-telemetry.
pub fn evaluate_observed(
    system: &mut dyn NlQuerySystem,
    questions: &[BenchmarkQuestion],
    eval_ts: i64,
    registry: &dio_obs::Registry,
) -> EvalReport {
    evaluate_inner(system, questions, eval_ts, Some(registry))
}

fn evaluate_inner(
    system: &mut dyn NlQuerySystem,
    questions: &[BenchmarkQuestion],
    eval_ts: i64,
    registry: Option<&dio_obs::Registry>,
) -> EvalReport {
    if let Some(reg) = registry {
        // Pre-register so a zero-question run still exports the family.
        reg.counter_with(QUESTIONS_NAME, QUESTIONS_HELP, &[("correct", "true")]);
    }
    let mut outcomes = Vec::with_capacity(questions.len());
    let mut per_shape: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    let mut plain = (0usize, 0usize);
    let mut para = (0usize, 0usize);
    let mut cost_total = 0.0;

    for q in questions {
        let a = system.answer(&q.text, eval_ts);
        let correct = a
            .numeric_answer
            .map(|v| numeric_match(v, q.reference.numeric))
            .unwrap_or(false);
        cost_total += a.cost_cents;
        if let Some(reg) = registry {
            reg.counter_with(
                QUESTIONS_NAME,
                QUESTIONS_HELP,
                &[("correct", if correct { "true" } else { "false" })],
            )
            .inc();
            reg.histogram(
                QUESTION_COST_NAME,
                QUESTION_COST_HELP,
                &dio_obs::Buckets::exponential(0.25, 2.0, 10),
            )
            .observe(a.cost_cents);
        }

        let entry = per_shape.entry(q.shape.clone()).or_insert((0, 0));
        entry.1 += 1;
        if correct {
            entry.0 += 1;
        }
        match q.phrasing {
            crate::questions::Phrasing::Plain => {
                plain.1 += 1;
                if correct {
                    plain.0 += 1;
                }
            }
            crate::questions::Phrasing::Paraphrase => {
                para.1 += 1;
                if correct {
                    para.0 += 1;
                }
            }
        }

        outcomes.push(QuestionOutcome {
            id: q.id,
            correct,
            query: a.query,
            numeric: a.numeric_answer,
            reference: q.reference.numeric,
            error: a.error,
            repairs: a.repairs,
            degraded: a.degraded,
        });
    }

    let correct = outcomes.iter().filter(|o| o.correct).count();
    let repairs_total = outcomes.iter().map(|o| o.repairs).sum();
    let degraded_count = outcomes.iter().filter(|o| o.degraded).count();
    let total = outcomes.len();
    EvalReport {
        system: system.system_name(),
        total,
        correct,
        ex_percent: if total == 0 {
            0.0
        } else {
            correct as f64 * 100.0 / total as f64
        },
        per_shape,
        plain_vs_paraphrase: (plain.0, plain.1, para.0, para.1),
        mean_cost_cents: if total == 0 {
            0.0
        } else {
            cost_total / total as f64
        },
        repairs_total,
        degraded_count,
        outcomes,
    }
}

/// Paired verdict on two runs over the same questions: how many only
/// `a` answered correctly, how many only `b`, and the exact two-sided
/// McNemar p of that split. Outcomes pair by position, so runs over
/// several worlds pool by concatenation.
///
/// # Panics
/// If the runs differ in length or pair different question ids.
pub fn compare(a: &[QuestionOutcome], b: &[QuestionOutcome]) -> (usize, usize, f64) {
    assert_eq!(
        a.len(),
        b.len(),
        "compared runs must cover the same questions"
    );
    let (mut only_a, mut only_b) = (0, 0);
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "compared runs must pair the same questions");
        only_a += usize::from(x.correct && !y.correct);
        only_b += usize::from(y.correct && !x.correct);
    }
    (only_a, only_b, mcnemar_p(only_a, only_b))
}

/// Exact two-sided McNemar p: `2·P(X ≤ min)` for `X ~ Binomial(n, ½)`
/// over the `n` discordant pairs, capped at 1. Each term is the last
/// one times `(n − i)/(i + 1)`, exact while the coefficients fit a
/// double; past 1 022 pairs `2⁻ⁿ` underflows, so the terms are summed
/// from logarithms there.
fn mcnemar_p(only_a: usize, only_b: usize) -> f64 {
    let (n, k) = (only_a + only_b, only_a.min(only_b));
    let mut tail = 0.0;
    if n <= 1022 {
        let mut term = 0.5f64.powi(n as i32);
        for i in 0..=k {
            tail += term;
            term = term * (n - i) as f64 / (i + 1) as f64;
        }
    } else {
        let mut ln_term = -(n as f64) * std::f64::consts::LN_2;
        for i in 0..=k {
            tail += ln_term.exp();
            ln_term += ((n - i) as f64 / (i + 1) as f64).ln();
        }
    }
    (2.0 * tail).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::questions::{Phrasing, Reference};
    use dio_baselines::SystemAnswer;
    use dio_llm::TokenUsage;

    /// A stub system that answers a fixed fraction correctly.
    struct Stub {
        right: Vec<bool>,
        i: usize,
    }

    impl NlQuerySystem for Stub {
        fn system_name(&self) -> String {
            "stub".into()
        }
        fn answer(&mut self, _q: &str, _ts: i64) -> SystemAnswer {
            let right = self.right[self.i % self.right.len()];
            self.i += 1;
            SystemAnswer {
                query: "sum(m)".into(),
                numeric_answer: Some(if right { 10.0 } else { 5.0 }),
                values: vec![],
                error: None,
                repairs: if right { 0 } else { 1 },
                degraded: false,
                usage: TokenUsage {
                    prompt_tokens: 100,
                    completion_tokens: 10,
                },
                cost_cents: 2.0,
            }
        }
    }

    fn questions(n: usize) -> Vec<BenchmarkQuestion> {
        (0..n)
            .map(|id| BenchmarkQuestion {
                id,
                text: format!("question {id}"),
                shape: if id % 2 == 0 { "TotalCount" } else { "RatePerSecond" }.into(),
                phrasing: if id % 2 == 0 {
                    Phrasing::Plain
                } else {
                    Phrasing::Paraphrase
                },
                reference: Reference {
                    metrics: vec!["m".into()],
                    promql: "sum(m)".into(),
                    numeric: 10.0,
                },
            })
            .collect()
    }

    #[test]
    fn numeric_match_tolerances() {
        assert!(numeric_match(10.0, 10.0));
        assert!(numeric_match(10.0 + 1e-12, 10.0));
        assert!(!numeric_match(10.1, 10.0));
        assert!(!numeric_match(f64::NAN, 10.0));
        assert!(!numeric_match(10.0, f64::INFINITY));
        assert!(numeric_match(0.0, 0.0));
    }

    #[test]
    fn report_aggregates_correctly() {
        let mut s = Stub {
            right: vec![true, false],
            i: 0,
        };
        let qs = questions(10);
        let r = evaluate(&mut s, &qs, 0);
        assert_eq!(r.total, 10);
        assert_eq!(r.correct, 5);
        assert_eq!(r.ex_percent, 50.0);
        assert_eq!(r.mean_cost_cents, 2.0);
        // Even ids (plain, TotalCount) were the correct ones.
        assert_eq!(r.per_shape["TotalCount"], (5, 5));
        assert_eq!(r.per_shape["RatePerSecond"], (0, 5));
        assert_eq!(r.plain_vs_paraphrase, (5, 5, 0, 5));
        // The stub reports one repair round per wrong answer.
        assert_eq!(r.repairs_total, 5);
        assert_eq!(r.degraded_count, 0);
    }

    #[test]
    fn observed_evaluation_counts_questions_and_cost() {
        let mut s = Stub {
            right: vec![true, false],
            i: 0,
        };
        let qs = questions(10);
        let reg = dio_obs::Registry::new();
        let r = evaluate_observed(&mut s, &qs, 0, &reg);
        let snap = reg.snapshot();
        assert_eq!(snap.total(QUESTIONS_NAME), r.total as f64);
        let fam = snap.family(QUESTIONS_NAME).unwrap();
        let correct: f64 = fam
            .series
            .iter()
            .filter(|se| se.labels.contains(&("correct".into(), "true".into())))
            .map(|se| match &se.value {
                dio_obs::SeriesValue::Counter(v) => *v,
                _ => 0.0,
            })
            .sum();
        assert_eq!(correct, r.correct as f64);
        // 10 questions at 2¢ each.
        assert_eq!(snap.total(QUESTION_COST_NAME), 20.0);
    }

    /// Outcomes for ids `0..`, correct where `right` says.
    fn outcomes(right: &[bool]) -> Vec<QuestionOutcome> {
        right
            .iter()
            .enumerate()
            .map(|(id, &correct)| QuestionOutcome {
                id,
                correct,
                query: String::new(),
                numeric: None,
                reference: 0.0,
                error: None,
                repairs: 0,
                degraded: false,
            })
            .collect()
    }

    #[test]
    fn compare_counts_discordant_pairs_and_pins_exact_mcnemar_p() {
        // 7 only-a, 19 only-b, 3 both, 2 neither.
        let mut a = vec![true; 7];
        a.extend([false; 19].iter().chain(&[true; 3]).chain(&[false; 2]));
        let mut b = vec![false; 7];
        b.extend([true; 19].iter().chain(&[true; 3]).chain(&[false; 2]));
        assert_eq!(
            compare(&outcomes(&a), &outcomes(&b)),
            (7, 19, 0.028959274291992188)
        );
        assert_eq!(
            compare(&outcomes(&b), &outcomes(&a)),
            (19, 7, 0.028959274291992188)
        );

        for (only_a, only_b, p) in [
            (7, 19, 0.028959274291992188),
            (0, 4, 0.125),
            (20, 3, 0.00048828125),
            (13, 11, 0.8388197422027588),
            (0, 0, 1.0),
        ] {
            assert_eq!(mcnemar_p(only_a, only_b), p, "{only_a}/{only_b}");
        }
        // Past the exact range the log-space sum still gives a p.
        assert_eq!(mcnemar_p(600, 600), 1.0);
        assert!(mcnemar_p(500, 700) < 1e-7);
    }

    #[test]
    #[should_panic(expected = "same questions")]
    fn compare_refuses_runs_over_different_questions() {
        compare(&outcomes(&[true, false]), &outcomes(&[true]));
    }

    #[test]
    fn empty_benchmark_gives_zero() {
        let mut s = Stub {
            right: vec![true],
            i: 0,
        };
        let r = evaluate(&mut s, &[], 0);
        assert_eq!(r.ex_percent, 0.0);
        assert_eq!(r.mean_cost_cents, 0.0);
    }
}
