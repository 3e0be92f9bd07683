//! Audit trail of every execution attempt.

use dio_obs::push_bounded;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Entries an [`AuditLog`] retains: a serve worker's sandbox lives as
/// long as the worker, so the log keeps the newest executions, not all.
const AUDIT_LOG_CAP: usize = 4096;

/// What happened to an attempted query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditOutcome {
    /// Vetted and executed successfully.
    Executed,
    /// Refused by the static policy.
    Refused {
        /// Human-readable violation.
        reason: String,
    },
    /// Failed to parse.
    ParseFailed {
        /// Parser message.
        reason: String,
    },
    /// Vetted but failed during evaluation (including resource limits).
    EvalFailed {
        /// Engine message.
        reason: String,
    },
}

/// One audit record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditEntry {
    /// Monotone sequence number.
    pub seq: u64,
    /// The raw query text as submitted.
    pub query: String,
    /// Evaluation timestamp requested.
    pub eval_ts: i64,
    /// The outcome.
    pub outcome: AuditOutcome,
}

/// Audit log of the newest 4 096 execution attempts; sequence numbers
/// and the outcome totals cover every attempt ever recorded.
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    entries: VecDeque<AuditEntry>,
    recorded: u64,
    executed: usize,
    refused: usize,
}

impl AuditLog {
    /// An empty log.
    pub fn new() -> Self {
        AuditLog::default()
    }

    /// Append a record, returning its sequence number.
    pub fn record(&mut self, query: &str, eval_ts: i64, outcome: AuditOutcome) -> u64 {
        let seq = self.recorded;
        self.recorded += 1;
        match outcome {
            AuditOutcome::Executed => self.executed += 1,
            AuditOutcome::Refused { .. } => self.refused += 1,
            AuditOutcome::ParseFailed { .. } | AuditOutcome::EvalFailed { .. } => {}
        }
        push_bounded(
            &mut self.entries,
            AUDIT_LOG_CAP,
            AuditEntry {
                seq,
                query: query.to_string(),
                eval_ts,
                outcome,
            },
        );
        seq
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> &VecDeque<AuditEntry> {
        &self.entries
    }

    /// Number of refused queries, over every attempt recorded.
    pub fn refused_count(&self) -> usize {
        self.refused
    }

    /// Number of executed queries, over every attempt recorded.
    pub fn executed_count(&self) -> usize {
        self.executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_sequenced() {
        let mut log = AuditLog::new();
        assert_eq!(log.record("q1", 0, AuditOutcome::Executed), 0);
        assert_eq!(
            log.record(
                "q2",
                5,
                AuditOutcome::Refused {
                    reason: "nope".into()
                }
            ),
            1
        );
        assert_eq!(log.entries().len(), 2);
        assert_eq!(log.executed_count(), 1);
        assert_eq!(log.refused_count(), 1);
        assert_eq!(log.entries()[1].query, "q2");
    }

    #[test]
    fn log_keeps_the_newest_entries_and_exact_totals() {
        let mut log = AuditLog::new();
        let n = AUDIT_LOG_CAP + 10;
        for i in 0..n {
            let outcome = if i % 2 == 0 {
                AuditOutcome::Executed
            } else {
                AuditOutcome::Refused { reason: "no".into() }
            };
            assert_eq!(log.record(&format!("q{i}"), 0, outcome), i as u64);
        }
        assert_eq!(log.entries().len(), AUDIT_LOG_CAP);
        assert_eq!(log.entries()[0].seq, 10);
        assert_eq!(log.entries().back().unwrap().query, format!("q{}", n - 1));
        assert_eq!(log.executed_count(), n / 2);
        assert_eq!(log.refused_count(), n / 2);
    }
}
