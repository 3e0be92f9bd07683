//! Per-tenant fair-share admission via token buckets.
//!
//! Every tenant gets an identical token bucket: `rate_per_sec` tokens
//! refill continuously up to `burst`. A request costs one token;
//! tenants that exhaust their bucket are shed with
//! [`crate::ShedReason::TenantThrottle`] and a `retry_after` hint —
//! the time until one token will have refilled. Because buckets are
//! independent, one chatty tenant can exhaust only its own budget and
//! never starves the others (fair share by isolation, not by global
//! scheduling).

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The per-tenant rate policy.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantPolicy {
    /// Sustained requests per second per tenant. `<= 0` disables
    /// throttling entirely (every request admitted).
    pub rate_per_sec: f64,
    /// Bucket depth: how many requests a tenant may burst above the
    /// sustained rate.
    pub burst: f64,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            rate_per_sec: 50.0,
            burst: 100.0,
        }
    }
}

impl TenantPolicy {
    /// A policy that admits everything (rate limiting off).
    pub fn unlimited() -> Self {
        TenantPolicy {
            rate_per_sec: 0.0,
            burst: 0.0,
        }
    }
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    refilled: Instant,
}

/// Fair-share rate limiter: one token bucket per tenant name.
#[derive(Debug)]
pub(crate) struct RateLimiter {
    policy: TenantPolicy,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl RateLimiter {
    /// Build a limiter with the given per-tenant policy.
    pub(crate) fn new(policy: TenantPolicy) -> Self {
        RateLimiter {
            policy,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Try to spend one token for `tenant` as of `now`. On refusal
    /// returns how long until a token will be available.
    pub(crate) fn try_acquire_at(&self, tenant: &str, now: Instant) -> Result<(), Duration> {
        if self.policy.rate_per_sec <= 0.0 {
            return Ok(());
        }
        let mut buckets = self.buckets.lock().unwrap();
        let bucket = buckets.entry(tenant.to_string()).or_insert(Bucket {
            tokens: self.policy.burst,
            refilled: now,
        });
        let dt = now.saturating_duration_since(bucket.refilled).as_secs_f64();
        bucket.tokens = (bucket.tokens + dt * self.policy.rate_per_sec).min(self.policy.burst);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - bucket.tokens;
            Err(Duration::from_secs_f64(deficit / self.policy.rate_per_sec))
        }
    }

    /// Return one token to `tenant`'s bucket. Used when an admitted
    /// request is refused downstream (e.g. the queue is full during a
    /// failover-induced backup): the tenant did not consume service,
    /// so the charge is reversed and a well-behaved retry is not
    /// throttled for the service's own congestion.
    pub(crate) fn refund(&self, tenant: &str) {
        if self.policy.rate_per_sec <= 0.0 {
            return;
        }
        let mut buckets = self.buckets.lock().unwrap();
        if let Some(bucket) = buckets.get_mut(tenant) {
            bucket.tokens = (bucket.tokens + 1.0).min(self.policy.burst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_throttle() {
        let rl = RateLimiter::new(TenantPolicy {
            rate_per_sec: 10.0,
            burst: 3.0,
        });
        let t0 = Instant::now();
        for _ in 0..3 {
            assert!(rl.try_acquire_at("a", t0).is_ok());
        }
        let retry = rl.try_acquire_at("a", t0).unwrap_err();
        // One token refills in 100ms at 10/s.
        assert!(retry <= Duration::from_millis(101), "retry {retry:?}");
        assert!(retry >= Duration::from_millis(99), "retry {retry:?}");
    }

    #[test]
    fn refill_restores_admission() {
        let rl = RateLimiter::new(TenantPolicy {
            rate_per_sec: 10.0,
            burst: 1.0,
        });
        let t0 = Instant::now();
        assert!(rl.try_acquire_at("a", t0).is_ok());
        assert!(rl.try_acquire_at("a", t0).is_err());
        assert!(rl
            .try_acquire_at("a", t0 + Duration::from_millis(150))
            .is_ok());
    }

    #[test]
    fn refund_reverses_the_charge() {
        let rl = RateLimiter::new(TenantPolicy {
            rate_per_sec: 10.0,
            burst: 1.0,
        });
        let t0 = Instant::now();
        assert!(rl.try_acquire_at("a", t0).is_ok());
        // Downstream refused the admitted request: the refund makes
        // the immediate retry admissible instead of throttled.
        rl.refund("a");
        assert!(rl.try_acquire_at("a", t0).is_ok());
        assert!(rl.try_acquire_at("a", t0).is_err());
        // Refunds never push a bucket past its burst capacity, and a
        // refund for an uncharged tenant is a no-op.
        rl.refund("a");
        rl.refund("a");
        rl.refund("a");
        assert!(rl.try_acquire_at("a", t0).is_ok());
        assert!(rl.try_acquire_at("a", t0).is_err());
        rl.refund("never-charged");
        assert_eq!(rl.buckets.lock().unwrap().len(), 1);
    }

    #[test]
    fn tenants_are_isolated() {
        let rl = RateLimiter::new(TenantPolicy {
            rate_per_sec: 1.0,
            burst: 1.0,
        });
        let t0 = Instant::now();
        assert!(rl.try_acquire_at("noisy", t0).is_ok());
        assert!(rl.try_acquire_at("noisy", t0).is_err());
        // A different tenant is unaffected by `noisy`'s exhaustion.
        assert!(rl.try_acquire_at("quiet", t0).is_ok());
        assert_eq!(rl.buckets.lock().unwrap().len(), 2);
    }

    #[test]
    fn refill_caps_at_burst() {
        let rl = RateLimiter::new(TenantPolicy {
            rate_per_sec: 100.0,
            burst: 2.0,
        });
        let t0 = Instant::now();
        // After a long idle stretch only `burst` tokens are available.
        let later = t0 + Duration::from_secs(60);
        assert!(rl.try_acquire_at("a", t0).is_ok());
        assert!(rl.try_acquire_at("a", later).is_ok());
        assert!(rl.try_acquire_at("a", later).is_ok());
        assert!(rl.try_acquire_at("a", later).is_err());
    }

    #[test]
    fn unlimited_policy_always_admits() {
        let rl = RateLimiter::new(TenantPolicy::unlimited());
        let t0 = Instant::now();
        for _ in 0..10_000 {
            assert!(rl.try_acquire_at("a", t0).is_ok());
        }
    }
}
