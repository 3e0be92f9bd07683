//! Integration test for the self-observation loop: the copilot's own
//! telemetry, scraped through the Prometheus exposition format into a
//! queryable store, must answer natural-language questions about the
//! copilot with numerically correct results.
//!
//! This is a smaller instance of the `self_observe` binary (20
//! questions instead of 60) so it stays tractable in the debug-profile
//! test run; the loop exercised is identical.

use dio_bench::selfobs::run_self_observation;
use dio_obs::parse_exposition;

#[test]
fn copilot_answers_questions_about_its_own_telemetry() {
    let outcome = run_self_observation(20, 0.25);

    // The observed benchmark ran and was scraped after every chunk.
    assert_eq!(outcome.questions_run, 20);
    assert_eq!(outcome.scrapes, 2);
    assert!(outcome.samples_appended > 0);

    // The exporter's output is valid Prometheus text: it parses, and
    // counters carry their TYPE lines.
    let families = parse_exposition(&outcome.exposition).expect("exposition round-trip");
    assert!(families
        .iter()
        .any(|f| f.name == "dio_copilot_asks_total"
            && f.kind == dio_obs::ScrapedKind::Counter));
    assert!(families
        .iter()
        .any(|f| f.name == "dio_copilot_stage_duration_micros"
            && f.kind == dio_obs::ScrapedKind::Histogram));

    // Every exported instrument got a catalog description.
    assert!(
        outcome.undocumented.is_empty(),
        "undocumented instruments: {:?}",
        outcome.undocumented
    );
    assert!(outcome.catalog_len > 0);

    // At least three self-directed questions verified numerically
    // against the registry ground truth.
    let qa_correct = outcome.qa.iter().filter(|q| q.correct).count();
    assert!(
        qa_correct >= 3,
        "only {}/{} self-directed answers verified: {:#?}",
        qa_correct,
        outcome.qa.len(),
        outcome.qa
    );

    // The recovery machinery actually fired under fault injection, so
    // the answers are about real activity, not zeros.
    let repairs = outcome
        .qa
        .iter()
        .find(|q| q.metric == dio_copilot::obs::REPAIRS_NAME)
        .expect("repairs question present");
    let calls = outcome
        .qa
        .iter()
        .find(|q| q.metric == "dio_llm_model_calls_total")
        .expect("model-calls question present");
    assert!(calls.expected >= 20.0, "model calls: {}", calls.expected);
    let _ = repairs;
}
