//! Request budgets: an absolute deadline plus a cooperative
//! cancellation token, carried by value through every plane.
//!
//! A [`Budget`] travels alongside the [`crate::SpanContext`]: the serve
//! tier stamps one at admission, workers check it between pipeline
//! stages, the copilot caps retries and backoff by the remaining
//! budget, and model calls derive per-call timeouts from it.
//!
//! All deadline arithmetic is *saturating*: once the deadline has
//! passed, [`Budget::remaining`] reports `Duration::ZERO` — it never
//! panics or wraps, no matter how late the caller checks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An absolute deadline plus a shared cancellation token.
///
/// Cheap to clone: clones share the cancellation token (cancelling one
/// cancels all) and copy the deadline. An unbounded budget (no
/// deadline) never expires on its own but can still be cancelled.
#[derive(Debug, Clone)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: Arc<AtomicBool>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unbounded()
    }
}

impl Budget {
    /// A budget with no deadline. It only expires if cancelled.
    pub fn unbounded() -> Self {
        Budget {
            deadline: None,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A budget expiring `allowance` from now.
    pub fn within(allowance: Duration) -> Self {
        Budget::with_deadline(Instant::now() + allowance)
    }

    /// A budget expiring at the absolute instant `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Budget {
            deadline: Some(deadline),
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The absolute deadline, `None` for an unbounded budget.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left before the deadline: `None` for an unbounded budget,
    /// `Some(Duration::ZERO)` once the deadline passed (saturating —
    /// never negative, never a panic) or the budget was cancelled.
    pub fn remaining(&self) -> Option<Duration> {
        if self.is_cancelled() {
            return Some(Duration::ZERO);
        }
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// True once the budget cannot fund more work: cancelled, or the
    /// deadline passed. An unbounded, uncancelled budget never expires.
    pub fn expired(&self) -> bool {
        if self.is_cancelled() {
            return true;
        }
        match self.deadline {
            Some(d) => d.saturating_duration_since(Instant::now()) == Duration::ZERO,
            None => false,
        }
    }

    /// Cap `want` by the remaining budget (saturating). Unbounded
    /// budgets return `want` unchanged; expired ones `Duration::ZERO`.
    pub fn cap(&self, want: Duration) -> Duration {
        match self.remaining() {
            Some(left) => want.min(left),
            None => {
                if self.is_cancelled() {
                    Duration::ZERO
                } else {
                    want
                }
            }
        }
    }

    /// Signal cooperative cancellation to every clone of this budget.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// True once any clone called [`Budget::cancel`].
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_expires_until_cancelled() {
        let b = Budget::unbounded();
        assert!(!b.expired());
        assert_eq!(b.remaining(), None);
        assert_eq!(b.cap(Duration::from_secs(5)), Duration::from_secs(5));
        b.cancel();
        assert!(b.expired());
        assert_eq!(b.cap(Duration::from_secs(5)), Duration::ZERO);
    }

    #[test]
    fn past_deadline_saturates_to_zero() {
        let b = Budget::with_deadline(Instant::now() - Duration::from_secs(1));
        assert!(b.expired());
        assert_eq!(b.remaining(), Some(Duration::ZERO));
        assert_eq!(b.cap(Duration::from_millis(50)), Duration::ZERO);
    }

    #[test]
    fn clones_share_the_cancellation_token() {
        let b = Budget::within(Duration::from_secs(60));
        let clone = b.clone();
        assert!(!clone.expired());
        b.cancel();
        assert!(clone.expired());
        assert!(clone.is_cancelled());
    }

    #[test]
    fn cap_shrinks_toward_the_deadline() {
        let b = Budget::within(Duration::from_millis(10));
        assert!(b.cap(Duration::from_secs(5)) <= Duration::from_millis(10));
    }
}
