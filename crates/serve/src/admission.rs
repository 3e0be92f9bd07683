//! The bounded admission queue with deadline-aware scheduling.
//!
//! Admission control is the service's backpressure valve: the queue
//! holds at most `capacity` accepted-but-unserved requests, and a full
//! queue sheds new arrivals immediately ([`ShedReason::QueueFull`])
//! instead of letting latency grow without bound. Workers drain the
//! queue in **earliest-deadline-first** order (a min-heap on the
//! absolute deadline, FIFO among equal deadlines), so under load the
//! requests most about to become useless are served first and the
//! rest shed cheaply at dequeue time rather than after burning a
//! worker on them.
//!
//! Shutdown is a drain, not a drop: after [`AdmissionQueue::shutdown`]
//! new pushes are refused but [`AdmissionQueue::pop`] keeps returning
//! queued entries until the heap is empty — an accepted request is
//! never silently discarded.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Why a request was refused or abandoned instead of answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ShedReason {
    /// The admission queue was at capacity.
    QueueFull,
    /// The tenant's token bucket was empty.
    TenantThrottle,
    /// The deadline lapsed while the request waited in the queue.
    DeadlineExpired,
    /// The pipeline panicked while serving the request; the request
    /// was not retried.
    WorkerPanic,
    /// The service was shutting down when the request arrived.
    Shutdown,
    /// The brownout ladder ([`crate::BrownoutLevel::Shed`]) was at its
    /// top rung: arrivals are refused while the backlog drains.
    Brownout,
}

impl ShedReason {
    /// The metric label value for `dio_serve_shed_total{reason=...}`.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::TenantThrottle => "tenant_throttle",
            ShedReason::DeadlineExpired => "deadline_expired",
            ShedReason::WorkerPanic => "worker_panic",
            ShedReason::Shutdown => "shutdown",
            ShedReason::Brownout => "brownout",
        }
    }

    /// Every variant, for metric pre-registration.
    pub fn all() -> [ShedReason; 6] {
        [
            ShedReason::QueueFull,
            ShedReason::TenantThrottle,
            ShedReason::DeadlineExpired,
            ShedReason::WorkerPanic,
            ShedReason::Shutdown,
            ShedReason::Brownout,
        ]
    }
}

struct Entry<T> {
    deadline: Instant,
    seq: u64,
    item: T,
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest
// deadline (FIFO by sequence number among ties).
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .deadline
            .cmp(&self.deadline)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

struct State<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    shutdown: bool,
}

/// A bounded, blocking, earliest-deadline-first queue.
pub(crate) struct AdmissionQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

/// Why [`AdmissionQueue::try_push`] refused an item (the item rides
/// back to the caller for reply routing).
pub(crate) struct PushRefused<T> {
    /// The refused item, returned to the caller.
    pub item: T,
    /// Queue full vs shutting down.
    pub reason: ShedReason,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` pending entries.
    pub(crate) fn new(capacity: usize) -> Self {
        AdmissionQueue {
            state: Mutex::new(State {
                heap: BinaryHeap::new(),
                next_seq: 0,
                shutdown: false,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue `item` due by `deadline`, or refuse it immediately.
    pub(crate) fn try_push(&self, item: T, deadline: Instant) -> Result<(), PushRefused<T>> {
        let mut state = self.state.lock().unwrap();
        if state.shutdown {
            return Err(PushRefused {
                item,
                reason: ShedReason::Shutdown,
            });
        }
        if state.heap.len() >= self.capacity {
            return Err(PushRefused {
                item,
                reason: ShedReason::QueueFull,
            });
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.heap.push(Entry {
            deadline,
            seq,
            item,
        });
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Block until an entry is available, returning it with its
    /// deadline. Returns `None` only when the queue has been shut down
    /// **and** fully drained.
    pub(crate) fn pop(&self) -> Option<(T, Instant)> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(e) = state.heap.pop() {
                return Some((e.item, e.deadline));
            }
            if state.shutdown {
                return None;
            }
            state = self.available.wait(state).unwrap();
        }
    }

    /// Entries currently queued.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().unwrap().heap.len()
    }

    /// Whether the queue is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Refuse future pushes and wake every blocked popper. Queued
    /// entries remain poppable until drained.
    pub(crate) fn shutdown(&self) {
        self.state.lock().unwrap().shutdown = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pops_in_deadline_order() {
        let q = AdmissionQueue::new(8);
        let t0 = Instant::now();
        q.try_push("late", t0 + Duration::from_secs(30))
            .ok()
            .unwrap();
        q.try_push("soon", t0 + Duration::from_secs(1))
            .ok()
            .unwrap();
        q.try_push("mid", t0 + Duration::from_secs(10))
            .ok()
            .unwrap();
        assert_eq!(q.pop().unwrap().0, "soon");
        assert_eq!(q.pop().unwrap().0, "mid");
        assert_eq!(q.pop().unwrap().0, "late");
    }

    #[test]
    fn fifo_among_equal_deadlines() {
        let q = AdmissionQueue::new(8);
        let d = Instant::now() + Duration::from_secs(5);
        for name in ["first", "second", "third"] {
            q.try_push(name, d).ok().unwrap();
        }
        assert_eq!(q.pop().unwrap().0, "first");
        assert_eq!(q.pop().unwrap().0, "second");
        assert_eq!(q.pop().unwrap().0, "third");
    }

    #[test]
    fn refuses_beyond_capacity() {
        let q = AdmissionQueue::new(2);
        let d = Instant::now();
        assert!(q.try_push(1, d).is_ok());
        assert!(q.try_push(2, d).is_ok());
        let refused = q.try_push(3, d).err().unwrap();
        assert_eq!(refused.item, 3);
        assert_eq!(refused.reason, ShedReason::QueueFull);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn shutdown_drains_then_ends() {
        let q = AdmissionQueue::new(8);
        let d = Instant::now();
        q.try_push("queued", d).ok().unwrap();
        q.shutdown();
        // New arrivals refused…
        assert_eq!(
            q.try_push("late", d).err().unwrap().reason,
            ShedReason::Shutdown
        );
        // …but the accepted entry still drains.
        assert_eq!(q.pop().unwrap().0, "queued");
        assert!(q.pop().is_none());
    }

    #[test]
    fn blocked_pop_wakes_on_push() {
        let q = std::sync::Arc::new(AdmissionQueue::new(4));
        let q2 = std::sync::Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop().map(|(v, _)| v));
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(42, Instant::now()).ok().unwrap();
        assert_eq!(h.join().unwrap(), Some(42));
    }

    #[test]
    fn blocked_pop_wakes_on_shutdown() {
        let q = std::sync::Arc::new(AdmissionQueue::<i32>::new(4));
        let q2 = std::sync::Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.shutdown();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn shed_reason_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            ShedReason::all().iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), ShedReason::all().len());
    }
}
