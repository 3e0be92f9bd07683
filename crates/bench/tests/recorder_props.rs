//! Property tests for the tail-sampling flight recorder: under
//! arbitrary interleavings of offered traces — finished and partial,
//! orphaned and intact, tiny and oversized — the ring must never
//! exceed its byte budget, never retain a partial tree, and evict
//! strictly oldest-first.

use dio_bench::drill::{FlightRecorder, RecorderConfig};
use dio_obs::{SpanRecord, TraceRecord, TraceStatus, FAILOVER_SPAN};
use proptest::prelude::*;

/// One synthetic offer, decoded from a random seed.
#[derive(Debug, Clone)]
struct Offer {
    status: TraceStatus,
    total_micros: u64,
    /// Extra child spans under the root; padding varies the serialized
    /// size so evictions trigger at different points.
    children: usize,
    padding: usize,
    finished: bool,
    orphan: bool,
    failover: bool,
}

fn offer_from_seed(seed: u64) -> Offer {
    Offer {
        status: match seed % 5 {
            0 => TraceStatus::Ok,
            1 => TraceStatus::Error,
            2 => TraceStatus::Shed,
            3 => TraceStatus::DeadlineExceeded,
            _ => TraceStatus::Degraded,
        },
        total_micros: (seed >> 2) % 50_000,
        children: ((seed >> 20) % 6) as usize,
        padding: ((seed >> 24) % 400) as usize,
        finished: (seed >> 33) % 5 != 0, // ~80 %
        orphan: (seed >> 36) % 5 == 0,   // ~20 %
        failover: (seed >> 39) % 5 == 0, // ~20 %
    }
}

fn build_record(id: u64, offer: &Offer) -> TraceRecord {
    let mut spans = vec![SpanRecord {
        span_id: 1,
        parent_span_id: None,
        name: "request".into(),
        start_micros: 0,
        micros: offer.total_micros,
        attrs: vec![("pad".into(), "x".repeat(offer.padding))],
    }];
    for i in 0..offer.children {
        spans.push(SpanRecord {
            span_id: 10 + i as u64,
            parent_span_id: Some(1),
            name: format!("stage_{i}"),
            start_micros: i as u64,
            micros: offer.total_micros / (offer.children as u64 + 1),
            attrs: Vec::new(),
        });
    }
    if offer.failover {
        spans.push(SpanRecord {
            span_id: 99,
            parent_span_id: Some(1),
            name: FAILOVER_SPAN.into(),
            start_micros: 0,
            micros: 10,
            attrs: vec![("shard".into(), "0".into())],
        });
    }
    if offer.orphan {
        spans.push(SpanRecord {
            span_id: 777,
            parent_span_id: Some(555_555), // parent never recorded
            name: "lost".into(),
            start_micros: 0,
            micros: 1,
            attrs: Vec::new(),
        });
    }
    TraceRecord {
        id,
        label: format!("prop trace {id}"),
        root_span_id: 1,
        status: offer.status,
        total_micros: offer.total_micros,
        finished: offer.finished,
        spans,
        events: Vec::new(),
    }
}

proptest! {
    /// The three ring invariants hold after every single offer, not
    /// just at the end: bytes within budget, only complete trees
    /// retained, and the retained set is a contiguous oldest-first
    /// suffix of everything ever retained (evictions only from the
    /// front).
    #[test]
    fn ring_never_overflows_and_keeps_only_complete_trees(
        seeds in prop::collection::vec(any::<u64>(), 1..120),
        budget in 256usize..8192,
    ) {
        let mut rec = FlightRecorder::with_config(RecorderConfig {
            byte_budget: budget,
            window: 32,
            min_samples: 8,
        });
        let offers: Vec<Offer> = seeds.iter().map(|&s| offer_from_seed(s)).collect();
        let mut retained_order: Vec<u64> = Vec::new();
        for (i, offer) in offers.iter().enumerate() {
            let record = build_record(i as u64, offer);
            let reason = rec.offer(&record);
            if reason.is_some() {
                retained_order.push(record.id);
            }

            // Invariant 1: the byte budget is a hard ceiling, always.
            prop_assert!(
                rec.bytes_used() <= rec.byte_budget(),
                "bytes_used {} exceeded budget {} after offer {}",
                rec.bytes_used(),
                rec.byte_budget(),
                i
            );

            let kept = rec.retained();
            // Invariant 2: nothing partial survives, and the charged
            // bytes reconcile with what is actually held.
            let mut sum = 0usize;
            for k in kept {
                prop_assert!(k.record.is_complete(), "partial tree retained: {:?}", k.record);
                prop_assert!(k.record.tree().is_some());
                prop_assert!(k.bytes > 0);
                sum += k.bytes;
            }
            prop_assert_eq!(sum, rec.bytes_used());

            // Invariant 3: oldest-first eviction — the ring equals the
            // tail of the retention order.
            let ids: Vec<u64> = kept.iter().map(|k| k.record.id).collect();
            let suffix = retained_order[retained_order.len() - ids.len()..].to_vec();
            prop_assert_eq!(ids, suffix, "ring is not an oldest-first suffix");
        }

        // Partial offers were all rejected as such, never retained.
        let (offered, rejected_partial) = rec.offer_stats();
        prop_assert_eq!(offered as usize, offers.len());
        let partials = offers.iter().filter(|o| !o.finished || o.orphan).count();
        prop_assert_eq!(rejected_partial as usize, partials);
    }

    /// Non-OK statuses and failover spans are always retained (budget
    /// permitting): the recorder may sample away fast OKs, never the
    /// interesting tail.
    #[test]
    fn interesting_complete_traces_are_always_retained(
        status in prop::sample::select(vec![
            TraceStatus::Ok,
            TraceStatus::Error,
            TraceStatus::Shed,
            TraceStatus::Degraded,
            TraceStatus::DeadlineExceeded,
        ]),
        failover in any::<bool>(),
        micros in 0u64..10_000,
    ) {
        let mut rec = FlightRecorder::new(); // 1 MiB: nothing evicts here
        let offer = Offer {
            status,
            total_micros: micros,
            children: 2,
            padding: 16,
            finished: true,
            orphan: false,
            failover,
        };
        let reason = rec.offer(&build_record(1, &offer));
        if status != TraceStatus::Ok {
            prop_assert_eq!(reason, Some(status.slug()));
        } else if failover {
            prop_assert_eq!(reason, Some("failed_over"));
        } else {
            // Fast OK against a cold window: sampled away.
            prop_assert!(reason.is_none());
        }
    }
}
