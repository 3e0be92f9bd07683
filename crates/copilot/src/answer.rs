//! Copilot response types.

use crate::error::CopilotError;
use crate::recovery::DegradationLevel;
use crate::trace::PipelineTrace;
use dio_dashboard::Dashboard;
use dio_llm::TokenUsage;
use dio_obs::TraceStatus;
use serde::{Deserialize, Serialize};

/// One relevant metric presented to the user (name + what it measures,
/// as in the paper's Figure 1b response).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelevantMetric {
    /// Counter name.
    pub name: String,
    /// Vendor description.
    pub description: String,
}

/// The copilot's full response to a question.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CopilotResponse {
    /// The question asked.
    pub question: String,
    /// Metrics the model judged relevant, with descriptions.
    pub relevant_metrics: Vec<RelevantMetric>,
    /// The generated PromQL (canonical form when it executed).
    pub query: String,
    /// English explanation of what the query computes.
    pub explanation: String,
    /// The numeric answer, when execution produced a single value.
    pub numeric_answer: Option<f64>,
    /// All numeric values when the result was a multi-sample vector.
    pub values: Vec<f64>,
    /// The classified failure, when something went wrong (a degraded
    /// answer may coexist with the error that forced the degradation).
    pub error: Option<CopilotError>,
    /// How much of the full pipeline stands behind this answer.
    pub degradation: DegradationLevel,
    /// Generated dashboard, when enabled.
    pub dashboard: Option<Dashboard>,
    /// Token usage across both model calls.
    pub usage: TokenUsage,
    /// Inference cost in US cents (§4.2.5 accounting).
    pub cost_cents: f64,
    /// Per-stage timings.
    pub trace: PipelineTrace,
}

/// The status an ask's trace closes with. A lapsed budget gets its own
/// class so a trace reader tells deadline aborts apart from ordinary
/// errors; a degraded answer outranks the error that forced it.
pub(crate) fn trace_status(
    error: Option<&CopilotError>,
    degradation: DegradationLevel,
) -> TraceStatus {
    if matches!(error, Some(CopilotError::DeadlineExceeded { .. })) {
        TraceStatus::DeadlineExceeded
    } else if degradation == DegradationLevel::Degraded {
        TraceStatus::Degraded
    } else if error.is_some() {
        TraceStatus::Error
    } else {
        TraceStatus::Ok
    }
}

impl CopilotResponse {
    /// The status this response's trace closes with — stamped by the
    /// copilot on a trace it opened, by the caller on one it owns.
    pub fn trace_status(&self) -> TraceStatus {
        trace_status(self.error.as_ref(), self.degradation)
    }

    /// Render a Figure-1b-style textual response.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Q: {}\n\n", self.question));
        out.push_str("Relevant metrics:\n");
        if self.relevant_metrics.is_empty() {
            out.push_str("  (none found — consider requesting expert help)\n");
        }
        for m in &self.relevant_metrics {
            out.push_str(&format!("  • {} — {}\n", m.name, m.description));
        }
        out.push_str(&format!("\nQuery:\n  {}\n", self.query));
        if !self.explanation.is_empty() {
            out.push_str(&format!("  ({})\n", self.explanation));
        }
        match (&self.numeric_answer, &self.error) {
            (Some(v), _) => out.push_str(&format!("\nAnswer: {v:.4}\n")),
            (None, Some(e)) => out.push_str(&format!("\nAnswer: unavailable ({e})\n")),
            (None, None) if !self.values.is_empty() => out.push_str(&format!(
                "\nAnswer: {} series returned\n",
                self.values.len()
            )),
            _ => out.push_str("\nAnswer: no data\n"),
        }
        match self.degradation {
            DegradationLevel::Full => {}
            DegradationLevel::Repaired => {
                out.push_str("(the initial query failed and was repaired automatically)\n")
            }
            DegradationLevel::Degraded => out.push_str(
                "(degraded answer: showing the top matching metric directly; \
                 consider requesting expert help)\n",
            ),
        }
        if self.dashboard.is_some() {
            out.push_str("\n[dashboard generated — render with dio-dashboard]\n");
        }
        out.push_str(&format!(
            "\n(inference: {} prompt + {} completion tokens, {:.2}¢)\n",
            self.usage.prompt_tokens, self.usage.completion_tokens, self.cost_cents
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response() -> CopilotResponse {
        CopilotResponse {
            question: "How many PDU sessions are active?".into(),
            relevant_metrics: vec![RelevantMetric {
                name: "smfpdu_active_pdu_sessions_current".into(),
                description: "The current number of active PDU sessions at SMF.".into(),
            }],
            query: "sum(smfpdu_active_pdu_sessions_current)".into(),
            explanation: "This computes the sum of the current value of `smfpdu_active_pdu_sessions_current` across all series.".into(),
            numeric_answer: Some(1234.0),
            values: vec![1234.0],
            error: None,
            degradation: DegradationLevel::Full,
            dashboard: None,
            usage: TokenUsage {
                prompt_tokens: 900,
                completion_tokens: 30,
            },
            cost_cents: 2.9,
            trace: PipelineTrace::default(),
        }
    }

    #[test]
    fn render_includes_all_parts() {
        let r = response().render();
        assert!(r.contains("Relevant metrics"));
        assert!(r.contains("smfpdu_active_pdu_sessions_current"));
        assert!(r.contains("sum(smfpdu_active_pdu_sessions_current)"));
        assert!(r.contains("Answer: 1234.0000"));
        assert!(r.contains("2.90¢"));
    }

    #[test]
    fn render_handles_errors_and_empties() {
        let mut r = response();
        r.numeric_answer = None;
        r.error = Some(CopilotError::PolicyRefused {
            rule: "range too wide".into(),
        });
        r.relevant_metrics.clear();
        let text = r.render();
        assert!(text.contains("unavailable (policy refusal: range too wide)"));
        assert!(text.contains("none found"));
    }

    #[test]
    fn render_labels_degraded_answers() {
        let mut r = response();
        r.degradation = DegradationLevel::Degraded;
        assert!(r.render().contains("degraded answer"));
        r.degradation = DegradationLevel::Repaired;
        assert!(r.render().contains("repaired automatically"));
    }
}
