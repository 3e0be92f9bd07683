//! Property tests for the gateway's three planes.
//!
//! * **Singleflight** — exactly one computation per key epoch; every
//!   follower either shares the leader's published value or observes
//!   the abandon promptly (never outliving a cancelled leader).
//! * **Batching** — under seeded random arrival schedules, no flush
//!   exceeds the size bound, every request resolves exactly once, no
//!   request with a deadline is *answered* after that deadline has
//!   lapsed, and under concurrent flushes every caller gets the answer
//!   to its own request.
//! * **Semantic cache** — a best neighbor below the similarity floor
//!   is never served (the EX-parity admission rule), and every hit's
//!   similarity clears the floor.

use dio_embed::Vector;
use dio_gateway::{
    BatchConfig, FollowerOutcome, Join, ModelGateway, Probe, SemanticCache, SemanticConfig,
    Singleflight,
};
use dio_llm::{
    BatchExpander, CompletionRequest, FoundationModel, ModelProfile, PromptBuilder,
    SimulatedModel, TaskKind,
};
use dio_obs::{Budget, Registry};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- singleflight

proptest! {
    /// One epoch, F followers: the leader computes exactly once and
    /// every follower receives a clone of the published value.
    #[test]
    fn one_computation_per_epoch(followers in 1usize..6, publish_delay_ms in 0u64..6) {
        let sf = Arc::new(Singleflight::<u64>::new());
        let computations = Arc::new(AtomicUsize::new(0));
        let guard = match sf.join("q") {
            Join::Leader(g) => g,
            Join::Follower(_) => unreachable!("first join leads"),
        };
        // Register every follower inside the epoch *before* spawning
        // the waiter threads — joining is non-blocking, so this pins
        // each one to the leader's epoch without a startup race.
        let handles: Vec<_> = (0..followers)
            .map(|_| match sf.join("q") {
                Join::Follower(h) => h,
                Join::Leader(_) => unreachable!("epoch already led"),
            })
            .map(|h| {
                std::thread::spawn(move || h.wait(&Budget::within(Duration::from_secs(10))))
            })
            .collect();
        computations.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(publish_delay_ms));
        guard.publish(42);
        for h in handles {
            prop_assert_eq!(h.join().unwrap(), FollowerOutcome::Ready(42));
        }
        prop_assert_eq!(computations.load(Ordering::SeqCst), 1);
        // The epoch closed; the key is free again.
        prop_assert_eq!(sf.in_flight(), 0);
    }

    /// A cancelled (dropped-without-publish) leader wakes every
    /// follower with `Abandoned` — followers never ride out their own
    /// budgets waiting on a dead epoch.
    #[test]
    fn followers_never_outlive_a_cancelled_leader(
        followers in 1usize..6,
        abandon_delay_ms in 0u64..6,
    ) {
        let sf = Arc::new(Singleflight::<u64>::new());
        let guard = match sf.join("q") {
            Join::Leader(g) => g,
            Join::Follower(_) => unreachable!(),
        };
        let handles: Vec<_> = (0..followers)
            .map(|_| match sf.join("q") {
                Join::Follower(h) => h,
                Join::Leader(_) => unreachable!("epoch already led"),
            })
            .map(|h| {
                std::thread::spawn(move || {
                    let started = Instant::now();
                    let out = h.wait(&Budget::within(Duration::from_secs(30)));
                    (out, started.elapsed())
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(abandon_delay_ms));
        drop(guard);
        for h in handles {
            let (out, waited) = h.join().unwrap();
            prop_assert_eq!(out, FollowerOutcome::Abandoned);
            prop_assert!(waited < Duration::from_secs(5), "waited {:?}", waited);
        }
        prop_assert_eq!(sf.in_flight(), 0);
    }
}

// -------------------------------------------------------------------- batching

fn request(question: &str, timeout_ms: Option<u64>) -> CompletionRequest {
    let prompt = PromptBuilder::new()
        .system("You are a 5G SA operator data analytics copilot.")
        .question(question)
        .task(TaskKind::AnswerDirectly)
        .build(8192, 1000);
    let req = CompletionRequest::paper_defaults(prompt);
    match timeout_ms {
        Some(ms) => req.with_timeout_ms(ms),
        None => req,
    }
}

proptest! {
    /// Seeded random arrival schedule: every request resolves, no
    /// flush exceeds `max_batch`, nothing is lost or double-flushed,
    /// and no deadline-carrying request is *answered* past its
    /// deadline.
    #[test]
    fn batch_bounds_hold_under_random_arrivals(
        n in 2usize..9,
        offsets in prop::collection::vec(0u64..7, 9..10),
        timeouts in prop::collection::vec(0u64..300, 9..10),
        max_batch in 1usize..5,
        max_delay_ms in 1u64..7,
    ) {
        let gw = ModelGateway::new(
            Box::new(BatchExpander::new(SimulatedModel::new(
                ModelProfile::gpt4_sim(),
            ))),
            BatchConfig {
                max_batch,
                max_delay: Duration::from_millis(max_delay_ms),
                min_slack: Duration::from_millis(50),
            },
            &Registry::new(),
            None,
        );
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let h = gw.handle();
                let offset_ms = offsets[i];
                // Below 60 means "no deadline"; otherwise the timeout
                // leaves room for the 50ms flush slack.
                let timeout_ms = if timeouts[i] < 60 { None } else { Some(timeouts[i]) };
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(offset_ms));
                    let enqueued = Instant::now();
                    let deadline = timeout_ms.map(|ms| enqueued + Duration::from_millis(ms));
                    let result =
                        h.complete(&request(&format!("how many drops on slice {i}?"), timeout_ms));
                    (result, deadline, Instant::now())
                })
            })
            .collect();
        for h in handles {
            let (result, deadline, done_at) = h.join().unwrap();
            // Every request resolves; an `Ok` answer must have landed
            // inside its own deadline (`min_slack` pre-books the
            // upstream call time).
            if let (Ok(_), Some(deadline)) = (&result, deadline) {
                prop_assert!(
                    done_at <= deadline,
                    "answered {:?} past the deadline",
                    done_at.duration_since(deadline)
                );
            }
        }
        let log = gw.flush_log();
        prop_assert!(!log.is_empty());
        let mut flushed = 0usize;
        for record in &log {
            prop_assert!(record.size <= max_batch, "flush of {} > {}", record.size, max_batch);
            flushed += record.size + record.lapsed;
        }
        // Conservation: every arrival was either flushed upstream or
        // failed locally as lapsed — none lost, none duplicated.
        prop_assert_eq!(flushed, n);
    }
}

proptest! {
    /// Concurrent callers, flushes free to overlap: whoever runs a
    /// flush, every `Ok` a caller gets is the answer to its *own*
    /// request — the text a lone simulated model gives it, and at
    /// `max_batch: 1` the whole completion — and every arrival is
    /// flushed or lapsed exactly once.
    #[test]
    fn concurrent_flushes_deliver_each_caller_its_own_answer(
        n in 2usize..9,
        offsets in prop::collection::vec(0u64..3, 9..10),
        timeouts in prop::collection::vec(0u64..300, 9..10),
        max_batch in 1usize..5,
        max_delay_ms in 1u64..4,
    ) {
        let gw = ModelGateway::new(
            Box::new(BatchExpander::new(SimulatedModel::new(
                ModelProfile::gpt4_sim(),
            ))),
            BatchConfig {
                max_batch,
                max_delay: Duration::from_millis(max_delay_ms),
                min_slack: Duration::from_millis(50),
            },
            &Registry::new(),
            None,
        );
        let solo = SimulatedModel::new(ModelProfile::gpt4_sim());
        let requests: Vec<CompletionRequest> = (0..n)
            .map(|i| {
                let timeout_ms = if timeouts[i] < 60 { None } else { Some(timeouts[i]) };
                request(&format!("how many drops on slice {i}?"), timeout_ms)
            })
            .collect();
        let all_started = std::sync::Barrier::new(n);
        let results: Vec<_> = std::thread::scope(|scope| {
            let threads: Vec<_> = requests
                .iter()
                .zip(&offsets)
                .map(|(req, &offset_ms)| {
                    let (h, all_started) = (gw.handle(), &all_started);
                    scope.spawn(move || {
                        all_started.wait();
                        std::thread::sleep(Duration::from_millis(offset_ms));
                        h.complete(req)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for (req, result) in requests.iter().zip(&results) {
            if let Ok(got) = result {
                let want = solo.complete(req).unwrap();
                if max_batch == 1 {
                    prop_assert_eq!(got, &want);
                } else {
                    prop_assert_eq!(&got.text, &want.text);
                }
            }
        }
        let log = gw.flush_log();
        let flushed: usize = log.iter().map(|f| f.size + f.lapsed).sum();
        prop_assert_eq!(flushed, n);
    }
}

// -------------------------------------------------------------- semantic cache

fn unit(values: &[f32]) -> Arc<Vector> {
    let norm = values.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-9);
    Arc::new(Vector(values.iter().map(|v| v / norm).collect()))
}

proptest! {
    /// The admission rule, adversarially: compute the best cosine
    /// independently and require the cache's verdict to agree with the
    /// floor — a sub-floor best neighbor is never served, and every
    /// hit's similarity clears the floor.
    #[test]
    fn sub_floor_neighbors_are_never_served(
        floor in 0.0f32..1.0,
        entries in prop::collection::vec(
            prop::collection::vec(-1.0f32..1.0, 4..5),
            1..8,
        ),
        query in prop::collection::vec(-1.0f32..1.0, 4..5),
    ) {
        // Skip degenerate zero-ish vectors (cosine numerically moot).
        if query.iter().all(|v| v.abs() <= 1e-3)
            || entries.iter().any(|e| e.iter().all(|v| v.abs() <= 1e-3))
        {
            return ::core::result::Result::Ok(());
        }
        let cache: SemanticCache<usize> = SemanticCache::new(
            &Registry::new(),
            SemanticConfig { floor, capacity: 64 },
        );
        let vectors: Vec<Arc<Vector>> = entries.iter().map(|e| unit(e)).collect();
        for (i, v) in vectors.iter().enumerate() {
            cache.insert(7, 1, &format!("q{i}"), Arc::clone(v), i);
        }
        let qv = unit(&query);
        let best = vectors
            .iter()
            .map(|v| dio_embed::cosine(v, &qv))
            .fold(f32::NEG_INFINITY, f32::max);
        match cache.probe(7, 1, &qv) {
            Probe::Hit { similarity, value, .. } => {
                prop_assert!(similarity >= floor, "served {} below floor {}", similarity, floor);
                // The served value belongs to the best neighbor.
                let sim_of_value = dio_embed::cosine(&vectors[value], &qv);
                prop_assert!((sim_of_value - best).abs() < 1e-5);
            }
            Probe::Reject { similarity } => {
                prop_assert!(similarity < floor);
                prop_assert!((similarity - best).abs() < 1e-5);
            }
            Probe::Miss => prop_assert!(false, "candidates existed; miss is impossible"),
        }
    }
}
