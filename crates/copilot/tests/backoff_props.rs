//! Property test for the recovery policy's backoff: the schedule is the
//! exact doubling ladder the rest of the test suite pins, saturating
//! past retry 16.

use dio_copilot::RecoveryPolicy;
use proptest::prelude::*;

proptest! {
    /// The schedule is the exact deterministic doubling ladder — the
    /// compatibility contract the pipeline tests pin
    /// (`[100, 200, 400, …]`).
    #[test]
    fn unseeded_schedule_is_pure_doubling(
        base in 0u64..100_000,
        retry in 0usize..24,
    ) {
        let p = RecoveryPolicy {
            backoff_base_ms: base,
            ..RecoveryPolicy::default()
        };
        prop_assert_eq!(p.backoff_ms(retry), base.saturating_mul(1u64 << retry.min(16)));
    }
}
