//! Recovery policy, circuit breaker, and degradation accounting for the
//! copilot's self-repairing execution loop.
//!
//! The pipeline treats every model call and sandbox execution as
//! fallible. Recovery is layered:
//!
//! 1. **Retries** — transient model failures ([`dio_llm::ModelError::is_transient`])
//!    are retried with a deterministic exponential backoff that is
//!    *recorded, never slept* (determinism forbids touching the clock);
//! 2. **Repair rounds** — a query the sandbox rejects is sent back to
//!    the model with the sandbox's structured hint
//!    ([`dio_sandbox::SandboxError::repair_hint`]) under
//!    [`dio_llm::TaskKind::RepairPromql`];
//! 3. **Circuit breaker** — after `breaker_threshold` consecutive model
//!    failures the breaker opens and model calls are skipped entirely
//!    for `breaker_cooldown` would-be calls, then half-opens to probe;
//! 4. **Graceful degradation** — when every layer is exhausted the
//!    copilot answers from the top retrieved metric directly and labels
//!    the response [`DegradationLevel::Degraded`].

use serde::{Deserialize, Serialize};

/// Bounds on the recovery behaviour. Stored in
/// [`crate::CopilotConfig`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Master switch. `false` reproduces the pre-recovery pipeline:
    /// one model call, one execution, errors surface immediately.
    pub enabled: bool,
    /// Maximum repair rounds after a sandbox rejection.
    pub max_repair_rounds: usize,
    /// Maximum retries of a transient model failure (per call site).
    pub max_retries: usize,
    /// First backoff interval; the schedule doubles each retry. The
    /// schedule is recorded in the trace, not slept.
    pub backoff_base_ms: u64,
    /// Consecutive model failures that open the circuit breaker.
    pub breaker_threshold: usize,
    /// Model calls skipped while the breaker is open before it
    /// half-opens to probe.
    pub breaker_cooldown: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            enabled: true,
            max_repair_rounds: 2,
            max_retries: 2,
            backoff_base_ms: 100,
            breaker_threshold: 3,
            breaker_cooldown: 2,
        }
    }
}

impl RecoveryPolicy {
    /// The ablation baseline: no retries, no repair, no breaker.
    pub fn disabled() -> Self {
        RecoveryPolicy {
            enabled: false,
            max_repair_rounds: 0,
            max_retries: 0,
            backoff_base_ms: 0,
            breaker_threshold: usize::MAX,
            breaker_cooldown: 0,
        }
    }

    /// The recorded backoff before retry `n` (0-based), doubling from
    /// the base and saturating past retry 16.
    pub fn backoff_ms(&self, retry: usize) -> u64 {
        self.backoff_base_ms.saturating_mul(1u64 << retry.min(16))
    }
}

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum BreakerState {
    /// Healthy: calls pass through.
    Closed,
    /// Tripped: calls are refused without reaching the model.
    Open,
    /// Probing: one call passes; success closes, failure re-opens.
    HalfOpen,
}

/// Consecutive-failure circuit breaker for model calls. Lives on the
/// copilot so state carries across `ask` invocations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: usize,
    cooldown_remaining: usize,
    threshold: usize,
    cooldown: usize,
    /// The cooldown the next trip will impose. Starts at the policy
    /// cooldown; doubles every time a half-open probe fails (the
    /// upstream is still sick, so probe less often) and resets on any
    /// success.
    current_cooldown: usize,
}

impl CircuitBreaker {
    /// A closed breaker with the policy's threshold/cooldown.
    pub(crate) fn new(policy: &RecoveryPolicy) -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            cooldown_remaining: 0,
            threshold: policy.breaker_threshold,
            cooldown: policy.breaker_cooldown,
            current_cooldown: policy.breaker_cooldown,
        }
    }

    /// Current state.
    pub(crate) fn state(&self) -> BreakerState {
        self.state
    }

    /// Ask permission to place a model call. While open, each refusal
    /// counts down the cooldown; when it reaches zero the breaker
    /// half-opens and the next request is admitted as a probe.
    pub(crate) fn allow(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if self.cooldown_remaining > 1 {
                    self.cooldown_remaining -= 1;
                    false
                } else {
                    self.state = BreakerState::HalfOpen;
                    true
                }
            }
        }
    }

    /// Record a successful model call. Fully closes the breaker, resets
    /// the failure streak, and restores the base cooldown for any
    /// future trip.
    pub(crate) fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
        self.current_cooldown = self.cooldown;
    }

    /// Record a failed model call. Returns `true` when this failure
    /// opened the breaker. A failed half-open probe re-opens with a
    /// doubled cooldown — the upstream proved it is still sick, so the
    /// next probe waits longer.
    pub(crate) fn record_failure(&mut self) -> bool {
        self.consecutive_failures += 1;
        let (should_open, escalate) = match self.state {
            // A failed half-open probe re-opens immediately, escalated.
            BreakerState::HalfOpen => (true, true),
            BreakerState::Closed => (self.consecutive_failures >= self.threshold, false),
            BreakerState::Open => (false, false),
        };
        if should_open {
            if escalate {
                self.current_cooldown = self.current_cooldown.max(1).saturating_mul(2);
            }
            self.state = BreakerState::Open;
            self.cooldown_remaining = self.current_cooldown.max(1);
        }
        should_open
    }
}

/// How much of the full pipeline stood behind an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DegradationLevel {
    /// The first generated query executed cleanly.
    #[default]
    Full,
    /// A repair round produced the executed query.
    Repaired,
    /// Repair was exhausted (or the breaker was open); the answer is a
    /// direct lookup of the top retrieved metric.
    Degraded,
}

impl std::fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradationLevel::Full => "full",
            DegradationLevel::Repaired => "repaired",
            DegradationLevel::Degraded => "degraded",
        })
    }
}

/// What recovery did during one `ask`, surfaced in
/// [`crate::PipelineTrace`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct RecoveryStats {
    /// Model calls attempted (including retries and repairs).
    pub attempts: usize,
    /// Repair rounds run after sandbox rejections.
    pub repairs: usize,
    /// Transient-failure retries.
    pub retries: usize,
    /// Breaker openings this ask's own model failures caused.
    pub breaker_trips: usize,
    /// Whether the answer came from the degraded fallback.
    pub degraded: bool,
    /// The deterministic backoff schedule that *would* have been slept,
    /// in order (recorded for the trace; no wall-clock is touched).
    pub backoff_schedule_ms: Vec<u64>,
    /// Storage faults (a store the resolver could not reach) absorbed
    /// during this ask.
    pub data_faults: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_threshold_consecutive_failures() {
        let policy = RecoveryPolicy {
            breaker_threshold: 3,
            breaker_cooldown: 2,
            ..RecoveryPolicy::default()
        };
        let mut b = CircuitBreaker::new(&policy);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure()); // third one trips
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(&RecoveryPolicy::default());
        b.record_failure();
        b.record_failure();
        b.record_success();
        assert!(!b.record_failure());
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn open_breaker_refuses_then_half_opens() {
        let policy = RecoveryPolicy {
            breaker_threshold: 1,
            breaker_cooldown: 2,
            ..RecoveryPolicy::default()
        };
        let mut b = CircuitBreaker::new(&policy);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow()); // cooldown tick 1
        assert!(b.allow()); // cooldown exhausted → half-open probe
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_probe_outcome_decides_state() {
        let policy = RecoveryPolicy {
            breaker_threshold: 1,
            breaker_cooldown: 1,
            ..RecoveryPolicy::default()
        };
        let mut b = CircuitBreaker::new(&policy);
        b.record_failure();
        assert!(b.allow()); // cooldown 1 → straight to half-open
        assert!(b.record_failure()); // failed probe re-opens (counts as a trip)
        assert_eq!(b.state(), BreakerState::Open);
        // The failed probe doubled the cooldown (1 → 2): one refusal
        // before the next probe is admitted.
        assert!(!b.allow());
        assert!(b.allow());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_success_fully_closes_and_resets_failure_count() {
        let policy = RecoveryPolicy {
            breaker_threshold: 2,
            breaker_cooldown: 1,
            ..RecoveryPolicy::default()
        };
        let mut b = CircuitBreaker::new(&policy);
        b.record_failure();
        b.record_failure(); // trips
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow()); // half-open probe
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.consecutive_failures, 0);
        // The streak really is reset: it takes the full threshold of
        // fresh failures to trip again.
        assert!(!b.record_failure());
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.record_failure());
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn failed_half_open_probes_escalate_the_cooldown() {
        let policy = RecoveryPolicy {
            breaker_threshold: 1,
            breaker_cooldown: 2,
            ..RecoveryPolicy::default()
        };
        let mut b = CircuitBreaker::new(&policy);
        b.record_failure(); // trip #1, cooldown 2
        assert_eq!(b.current_cooldown, 2);
        assert!(!b.allow());
        assert!(b.allow()); // probe #1
        b.record_failure(); // re-open with cooldown 4
        assert_eq!(b.current_cooldown, 4);
        for i in 0..3 {
            assert!(!b.allow(), "refusal {i} of the doubled cooldown");
        }
        assert!(b.allow()); // probe #2
        b.record_failure(); // re-open with cooldown 8
        assert_eq!(b.current_cooldown, 8);
        // A success anywhere restores the base cooldown.
        for _ in 0..7 {
            assert!(!b.allow());
        }
        assert!(b.allow());
        b.record_success();
        assert_eq!(b.current_cooldown, 2);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn backoff_schedule_doubles_from_base() {
        let p = RecoveryPolicy {
            backoff_base_ms: 100,
            ..RecoveryPolicy::default()
        };
        assert_eq!(p.backoff_ms(0), 100);
        assert_eq!(p.backoff_ms(1), 200);
        assert_eq!(p.backoff_ms(2), 400);
    }

    #[test]
    fn disabled_policy_bounds_everything_to_zero() {
        let p = RecoveryPolicy::disabled();
        assert!(!p.enabled);
        assert_eq!(p.max_repair_rounds, 0);
        assert_eq!(p.max_retries, 0);
    }

    #[test]
    fn degradation_levels_render() {
        assert_eq!(DegradationLevel::Full.to_string(), "full");
        assert_eq!(DegradationLevel::Repaired.to_string(), "repaired");
        assert_eq!(DegradationLevel::Degraded.to_string(), "degraded");
        assert_eq!(DegradationLevel::default(), DegradationLevel::Full);
    }
}
