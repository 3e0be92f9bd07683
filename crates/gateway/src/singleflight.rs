//! Singleflight coalescing: concurrent identical requests share one
//! computation.
//!
//! The first caller to [`Singleflight::join`] a key becomes the
//! **leader** and receives a [`LeaderGuard`]; callers arriving while
//! the leader is in flight become **followers** and block (with a
//! budget-derived timeout) until the leader publishes. One key epoch —
//! from the leader's join to its publish or abandon — admits exactly
//! one computation, no matter how many callers pile on.
//!
//! Cancellation safety is the delicate part:
//!
//! * a leader that drops its guard without publishing (deadline abort,
//!   panic unwind, browned-out answer it refuses to share) *abandons*
//!   the epoch: every follower wakes immediately with
//!   [`FollowerOutcome::Abandoned`] and may start a fresh epoch —
//!   followers never outlive a cancelled leader;
//! * a follower whose own budget lapses stops waiting with
//!   [`FollowerOutcome::TimedOut`] without disturbing the epoch — the
//!   leader keeps computing for whoever remains.
//!
//! The structure is deliberately value-agnostic (`V: Clone`) and free
//! of metrics/trace plumbing so its invariants are directly
//! property-testable; the serve tier layers attribution on top.

use dio_obs::Budget;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Epoch state shared between a leader and its followers.
#[derive(Debug)]
enum FlightState<V> {
    /// The leader is computing.
    Pending,
    /// The leader published; followers take clones.
    Done(V),
    /// The leader dropped without publishing.
    Abandoned,
}

#[derive(Debug)]
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    cv: Condvar,
}

/// Map of in-flight computations, keyed by (normalized) request key.
#[derive(Debug, Default)]
pub struct Singleflight<V> {
    flights: Mutex<HashMap<String, Arc<Flight<V>>>>,
}

/// What [`Singleflight::join`] resolved to.
pub enum Join<'a, V: Clone> {
    /// This caller leads the epoch and must publish or abandon.
    Leader(LeaderGuard<'a, V>),
    /// Another caller leads; wait on this handle.
    Follower(FollowerHandle<V>),
}

/// A follower's wait result.
#[derive(Debug, Clone, PartialEq)]
pub enum FollowerOutcome<V> {
    /// The leader published; this is a clone of its value.
    Ready(V),
    /// The leader abandoned the epoch without publishing.
    Abandoned,
    /// The follower's own budget lapsed while waiting.
    TimedOut,
}

/// Obligation to finish an epoch: publish a value for the followers or
/// abandon on drop. Dropping without [`LeaderGuard::publish`] wakes
/// every follower with [`FollowerOutcome::Abandoned`].
pub struct LeaderGuard<'a, V: Clone> {
    sf: &'a Singleflight<V>,
    key: String,
    flight: Arc<Flight<V>>,
    finished: bool,
}

/// A follower's handle on the leader's in-flight epoch.
pub struct FollowerHandle<V> {
    flight: Arc<Flight<V>>,
}

/// Polling slice for follower waits: long enough to be cheap, short
/// enough that a cancelled budget is observed promptly.
const WAIT_SLICE: Duration = Duration::from_millis(5);

impl<V: Clone> Singleflight<V> {
    /// An empty coalescer.
    pub fn new() -> Self {
        Singleflight {
            flights: Mutex::new(HashMap::new()),
        }
    }

    /// Join the epoch for `key`: lead it if nobody else is, follow
    /// otherwise.
    pub fn join(&self, key: &str) -> Join<'_, V> {
        let mut flights = self.flights.lock().unwrap();
        if let Some(flight) = flights.get(key) {
            return Join::Follower(FollowerHandle {
                flight: Arc::clone(flight),
            });
        }
        let flight = Arc::new(Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        });
        flights.insert(key.to_string(), Arc::clone(&flight));
        Join::Leader(LeaderGuard {
            sf: self,
            key: key.to_string(),
            flight,
            finished: false,
        })
    }

    /// Keys currently in flight (for tests and introspection).
    pub fn in_flight(&self) -> usize {
        self.flights.lock().unwrap().len()
    }

    fn close_epoch(&self, key: &str, flight: &Arc<Flight<V>>, state: FlightState<V>) {
        // Publish/abandon under the flight lock, then retire the key so
        // the next join opens a fresh epoch. Ordering matters: state
        // first, removal second — a caller that finds the key mid-close
        // becomes a follower and wakes immediately on the final state.
        {
            let mut st = flight.state.lock().unwrap();
            *st = state;
            flight.cv.notify_all();
        }
        let mut flights = self.flights.lock().unwrap();
        if let Some(current) = flights.get(key) {
            if Arc::ptr_eq(current, flight) {
                flights.remove(key);
            }
        }
    }
}

impl<V: Clone> LeaderGuard<'_, V> {
    /// Publish `value` to every follower and close the epoch.
    pub fn publish(mut self, value: V) {
        self.finished = true;
        self.sf
            .close_epoch(&self.key, &self.flight, FlightState::Done(value));
    }
}

impl<V: Clone> Drop for LeaderGuard<'_, V> {
    fn drop(&mut self) {
        if !self.finished {
            self.sf
                .close_epoch(&self.key, &self.flight, FlightState::Abandoned);
        }
    }
}

impl<V: Clone> FollowerHandle<V> {
    /// Block until the leader publishes or abandons, or `budget`
    /// lapses. Cancellation (of the budget's token) is observed within
    /// one wait slice.
    pub fn wait(&self, budget: &Budget) -> FollowerOutcome<V> {
        let mut st = self.flight.state.lock().unwrap();
        loop {
            match &*st {
                FlightState::Done(v) => return FollowerOutcome::Ready(v.clone()),
                FlightState::Abandoned => return FollowerOutcome::Abandoned,
                FlightState::Pending => {}
            }
            if budget.expired() {
                return FollowerOutcome::TimedOut;
            }
            let slice = match budget.remaining() {
                Some(left) => left.min(WAIT_SLICE),
                None => WAIT_SLICE,
            };
            let (guard, _) = self
                .flight
                .cv
                .wait_timeout(st, slice.max(Duration::from_micros(100)))
                .unwrap();
            st = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    #[test]
    fn leader_publishes_and_followers_share_the_value() {
        let sf = Arc::new(Singleflight::<String>::new());
        let calls = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let sf = Arc::clone(&sf);
            let calls = Arc::clone(&calls);
            handles.push(std::thread::spawn(move || match sf.join("q") {
                Join::Leader(guard) => {
                    calls.fetch_add(1, Ordering::SeqCst);
                    // Give followers time to pile on.
                    std::thread::sleep(Duration::from_millis(20));
                    guard.publish("answer".to_string());
                    "answer".to_string()
                }
                Join::Follower(h) => match h.wait(&Budget::unbounded()) {
                    FollowerOutcome::Ready(v) => v,
                    other => panic!("follower got {other:?}"),
                },
            }));
        }
        let results: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.iter().all(|r| r == "answer"));
        // Followers that joined during the epoch did no computation.
        assert!(calls.load(Ordering::SeqCst) >= 1);
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn abandoned_leader_wakes_followers_immediately() {
        let sf = Arc::new(Singleflight::<u32>::new());
        let guard = match sf.join("k") {
            Join::Leader(g) => g,
            Join::Follower(_) => panic!("first join must lead"),
        };
        let follower = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || match sf.join("k") {
                Join::Follower(h) => {
                    let started = Instant::now();
                    let out = h.wait(&Budget::within(Duration::from_secs(10)));
                    (out, started.elapsed())
                }
                Join::Leader(_) => panic!("leader already exists"),
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        drop(guard); // abandon without publishing
        let (out, waited) = follower.join().unwrap();
        assert_eq!(out, FollowerOutcome::Abandoned);
        // The follower did not ride out its own 10s budget.
        assert!(waited < Duration::from_secs(2), "waited {waited:?}");
        // The epoch closed: the key leads again.
        assert!(matches!(sf.join("k"), Join::Leader(_)));
    }

    #[test]
    fn follower_budget_lapse_times_out_without_closing_the_epoch() {
        let sf = Singleflight::<u32>::new();
        let _guard = match sf.join("k") {
            Join::Leader(g) => g,
            Join::Follower(_) => panic!(),
        };
        let follower = match sf.join("k") {
            Join::Follower(h) => h,
            Join::Leader(_) => panic!(),
        };
        let out = follower.wait(&Budget::within(Duration::from_millis(15)));
        assert_eq!(out, FollowerOutcome::TimedOut);
        // The leader's epoch is still open.
        assert_eq!(sf.in_flight(), 1);
    }

    #[test]
    fn cancelled_budget_is_observed_promptly() {
        let sf = Singleflight::<u32>::new();
        let _guard = match sf.join("k") {
            Join::Leader(g) => g,
            Join::Follower(_) => panic!(),
        };
        let follower = match sf.join("k") {
            Join::Follower(h) => h,
            Join::Leader(_) => panic!(),
        };
        let budget = Budget::within(Duration::from_secs(30));
        let cancel = budget.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            cancel.cancel();
        });
        let started = Instant::now();
        assert_eq!(follower.wait(&budget), FollowerOutcome::TimedOut);
        assert!(started.elapsed() < Duration::from_secs(2));
        t.join().unwrap();
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sf = Singleflight::<u32>::new();
        let a = sf.join("a");
        let b = sf.join("b");
        assert!(matches!(a, Join::Leader(_)));
        assert!(matches!(b, Join::Leader(_)));
    }
}
