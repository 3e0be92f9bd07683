//! A single error taxonomy for everything that can go wrong during an
//! `ask`, replacing the ad-hoc strings the pipeline used to thread
//! through [`crate::CopilotResponse`].

use dio_llm::ModelError;
use dio_sandbox::SandboxError;
use serde::{Deserialize, Serialize};

/// Why (part of) an `ask` failed. Structured so callers can branch on
/// the class; [`std::fmt::Display`] gives the user-facing string.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CopilotError {
    /// The model stayed unavailable through every retry (or the circuit
    /// breaker refused to call it).
    ModelUnavailable {
        /// Last upstream message.
        message: String,
        /// Model calls attempted before giving up.
        attempts: usize,
    },
    /// A non-transient model failure (context overflow, unsupported
    /// parameter).
    Model {
        /// The model's diagnosis.
        message: String,
    },
    /// The generated query never parsed, even after repair.
    QueryParse {
        /// Parser diagnosis.
        message: String,
        /// Byte offset of the error in the final attempted query.
        position: usize,
    },
    /// The sandbox policy refused the query, even after repair.
    PolicyRefused {
        /// The violated rule, rendered.
        rule: String,
    },
    /// The query failed at evaluation time, even after repair.
    QueryEval {
        /// Engine diagnosis.
        message: String,
    },
    /// The degraded fallback had nothing to answer from.
    NoData {
        /// What was tried.
        message: String,
    },
    /// A data-plane store failed transiently (tsdb, vecstore,
    /// feedback). Retryable: the query itself is fine.
    StorageFault {
        /// Which storage layer faulted ("tsdb", "vecstore", ...).
        layer: String,
        /// Upstream diagnosis.
        message: String,
    },
    /// A vector index was quarantined after corruption and every
    /// fallback tier was exhausted.
    IndexQuarantined {
        /// Slug of the quarantined index tier.
        index: String,
    },
    /// The request's [`dio_obs::Budget`] lapsed — deadline passed or
    /// the caller cancelled — and the pipeline abandoned the remaining
    /// work cooperatively. Distinct from a shed request: some work may
    /// already have run. Never retried and never sent to the degraded
    /// fallback (that would be more work past the deadline).
    DeadlineExceeded {
        /// The pipeline stage that observed the lapsed budget.
        stage: String,
    },
}

impl CopilotError {
    /// Classify a sandbox failure.
    pub fn from_sandbox(e: &SandboxError) -> Self {
        match e {
            SandboxError::Parse(p) => CopilotError::QueryParse {
                message: p.message.clone(),
                position: p.position,
            },
            SandboxError::Refused(v) => CopilotError::PolicyRefused {
                rule: v.to_string(),
            },
            SandboxError::Eval(m) => CopilotError::QueryEval { message: m.clone() },
            SandboxError::Storage(m) => CopilotError::StorageFault {
                layer: "tsdb".into(),
                message: m.clone(),
            },
        }
    }

    /// Classify a model failure after `attempts` calls.
    pub fn from_model(e: &ModelError, attempts: usize) -> Self {
        if e.is_transient() {
            CopilotError::ModelUnavailable {
                message: e.to_string(),
                attempts,
            }
        } else {
            CopilotError::Model {
                message: e.to_string(),
            }
        }
    }
}

impl std::fmt::Display for CopilotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CopilotError::ModelUnavailable { message, attempts } => {
                write!(f, "model unavailable after {attempts} attempts: {message}")
            }
            CopilotError::Model { message } => write!(f, "model error: {message}"),
            CopilotError::QueryParse { message, position } => {
                write!(f, "parse error at {position}: {message}")
            }
            CopilotError::PolicyRefused { rule } => write!(f, "policy refusal: {rule}"),
            CopilotError::QueryEval { message } => write!(f, "evaluation error: {message}"),
            CopilotError::NoData { message } => write!(f, "no data: {message}"),
            CopilotError::StorageFault { layer, message } => {
                write!(f, "storage fault in {layer}: {message}")
            }
            CopilotError::IndexQuarantined { index } => {
                write!(f, "index quarantined: {index}")
            }
            CopilotError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded at stage {stage}")
            }
        }
    }
}

impl std::error::Error for CopilotError {}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_promql::ParseError;

    #[test]
    fn sandbox_failures_classify() {
        let parse = SandboxError::Parse(ParseError::new("unexpected ')'", 7));
        assert_eq!(
            CopilotError::from_sandbox(&parse),
            CopilotError::QueryParse {
                message: "unexpected ')'".into(),
                position: 7
            }
        );
        let eval = SandboxError::Eval("budget".into());
        assert!(matches!(
            CopilotError::from_sandbox(&eval),
            CopilotError::QueryEval { .. }
        ));
        let storage = SandboxError::Storage("tsdb read timed out".into());
        assert_eq!(
            CopilotError::from_sandbox(&storage),
            CopilotError::StorageFault {
                layer: "tsdb".into(),
                message: "tsdb read timed out".into()
            }
        );
    }

    #[test]
    fn model_failures_split_on_transience() {
        let transient = ModelError::Unavailable("503".into());
        assert!(matches!(
            CopilotError::from_model(&transient, 3),
            CopilotError::ModelUnavailable { attempts: 3, .. }
        ));
        let hard = ModelError::Unsupported("temperature".into());
        assert!(matches!(
            CopilotError::from_model(&hard, 1),
            CopilotError::Model { .. }
        ));
    }

    #[test]
    fn display_strings_are_prefixed_by_class() {
        let e = CopilotError::QueryParse {
            message: "m".into(),
            position: 3,
        };
        assert_eq!(e.to_string(), "parse error at 3: m");
        let e = CopilotError::ModelUnavailable {
            message: "down".into(),
            attempts: 2,
        };
        assert_eq!(e.to_string(), "model unavailable after 2 attempts: down");
        let e = CopilotError::StorageFault {
            layer: "vecstore".into(),
            message: "crc mismatch".into(),
        };
        assert_eq!(e.to_string(), "storage fault in vecstore: crc mismatch");
        let e = CopilotError::IndexQuarantined { index: "ivf".into() };
        assert_eq!(e.to_string(), "index quarantined: ivf");
        let e = CopilotError::DeadlineExceeded {
            stage: "generate".into(),
        };
        assert_eq!(e.to_string(), "deadline exceeded at stage generate");
    }
}
