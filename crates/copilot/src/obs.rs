//! Pipeline-side instrument names and recording helpers.
//!
//! Every metric the copilot emits about itself is declared here, in one
//! place, following the `dio_<crate>_<name>_<unit>` naming convention.
//! The [`dio_obs::ObsHub`] carried by the copilot owns the registry and
//! span tracer these helpers write into; the self-observation loop
//! (`dio_obs::ObsScraper`) later scrapes the same registry into the
//! metric store the copilot queries.

use crate::recovery::BreakerState;
use dio_obs::{Buckets, ObsHub, Registry, SpanContext};

/// Questions the copilot was asked.
pub const ASKS_NAME: &str = "dio_copilot_asks_total";
pub(crate) const ASKS_HELP: &str = "Questions the copilot was asked.";

/// Answers returned, labelled by degradation level.
pub const ANSWERS_NAME: &str = "dio_copilot_answers_total";
pub(crate) const ANSWERS_HELP: &str =
    "Answers the copilot returned, by degradation level (full, repaired, degraded).";

/// Repair rounds run after sandbox rejections.
pub const REPAIRS_NAME: &str = "dio_copilot_repair_rounds_total";
pub(crate) const REPAIRS_HELP: &str =
    "Repair rounds the copilot ran after the sandbox rejected a generated query.";

/// Transient-failure model retries.
pub const RETRIES_NAME: &str = "dio_copilot_model_retries_total";
pub(crate) const RETRIES_HELP: &str =
    "Retries of transient foundation-model failures under the recovery policy.";

/// Recorded (never slept) backoff milliseconds.
pub const BACKOFF_NAME: &str = "dio_copilot_backoff_ms_total";
pub(crate) const BACKOFF_HELP: &str =
    "Milliseconds of deterministic retry backoff the recovery policy recorded.";

/// Circuit-breaker state transitions, labelled by destination state.
pub const BREAKER_NAME: &str = "dio_copilot_breaker_transitions_total";
pub(crate) const BREAKER_HELP: &str =
    "Circuit-breaker state transitions, by destination state (open, half_open, closed).";

/// Vector-index candidates scanned during retrieval.
pub const CANDIDATES_NAME: &str = "dio_copilot_retrieval_candidates_total";
pub(crate) const CANDIDATES_HELP: &str =
    "Vector-index candidates scanned while retrieving context for questions.";

/// Similarity scores of retrieved context samples.
pub const SIMILARITY_NAME: &str = "dio_copilot_retrieval_similarity_ratio";
pub(crate) const SIMILARITY_HELP: &str =
    "Cosine similarity of each retrieved context sample to its question.";

/// Per-stage wall-clock latency.
pub const STAGE_DURATION_NAME: &str = "dio_copilot_stage_duration_micros";
pub(crate) const STAGE_DURATION_HELP: &str =
    "Wall-clock duration of each pipeline stage invocation, in microseconds.";

/// Whole-ask wall-clock latency.
pub const ASK_DURATION_NAME: &str = "dio_copilot_ask_duration_micros";
pub(crate) const ASK_DURATION_HELP: &str =
    "End-to-end wall-clock duration of one ask, in microseconds.";

/// Data-plane faults absorbed, labelled by layer and fault kind.
pub const DATA_FAULTS_NAME: &str = "dio_copilot_data_faults_total";
pub(crate) const DATA_FAULTS_HELP: &str =
    "Data-plane faults the copilot absorbed, by storage layer and fault kind.";

/// Asks abandoned because the request budget lapsed, by stage.
pub const DEADLINE_NAME: &str = "dio_copilot_deadline_exceeded_total";
pub(crate) const DEADLINE_HELP: &str =
    "Asks abandoned cooperatively because the request budget lapsed, by pipeline stage.";

/// Stable label value for a breaker state.
pub(crate) fn breaker_slug(state: BreakerState) -> &'static str {
    match state {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half_open",
    }
}

/// Count and trace a breaker transition, if one happened.
pub(crate) fn note_breaker_transition(
    obs: &ObsHub,
    ctx: &SpanContext,
    before: BreakerState,
    after: BreakerState,
) {
    if before != after {
        obs.registry()
            .counter_with(BREAKER_NAME, BREAKER_HELP, &[("to", breaker_slug(after))])
            .inc();
        obs.tracer().event(
            ctx,
            "breaker_transition",
            &[("from", breaker_slug(before)), ("to", breaker_slug(after))],
        );
    }
}

/// Pre-register every pipeline instrument at zero so the exporter (and
/// the self-observation catalog) sees them before the first ask.
pub(crate) fn register_zero_instruments(registry: &Registry) {
    registry.counter(ASKS_NAME, ASKS_HELP);
    registry.counter_with(ANSWERS_NAME, ANSWERS_HELP, &[("degradation", "full")]);
    registry.counter(REPAIRS_NAME, REPAIRS_HELP);
    registry.counter(RETRIES_NAME, RETRIES_HELP);
    registry.counter(BACKOFF_NAME, BACKOFF_HELP);
    registry.counter_with(BREAKER_NAME, BREAKER_HELP, &[("to", "open")]);
    registry.counter(CANDIDATES_NAME, CANDIDATES_HELP);
    registry.counter_with(
        DATA_FAULTS_NAME,
        DATA_FAULTS_HELP,
        &[("layer", "tsdb"), ("kind", "transient_io")],
    );
    registry.counter_with(DEADLINE_NAME, DEADLINE_HELP, &[("stage", "model")]);
    registry.histogram(SIMILARITY_NAME, SIMILARITY_HELP, &Buckets::unit_fractions());
    registry.histogram_with(
        STAGE_DURATION_NAME,
        STAGE_DURATION_HELP,
        &Buckets::latency_micros(),
        &[("stage", "retrieve")],
    );
    registry.histogram(
        ASK_DURATION_NAME,
        ASK_DURATION_HELP,
        &Buckets::latency_micros(),
    );
}
