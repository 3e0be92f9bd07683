//! Seeded node crash/restart schedule — the process-level chaos layer.
//!
//! [`crate::Injector`] plants *link* faults (torn chunks, bit
//! flips) inside one process. A cluster drill also needs *node-level*
//! faults: kill a whole simulated node mid-write, then bring it back
//! and watch it rejoin. [`CrashSchedule`] plans those events with the
//! same discipline as the injector: every decision draws a fixed
//! number of RNG values (roll + pick) whether or not it fires, so the
//! schedule is a pure function of `(seed, op index)` and replays
//! exactly.
//!
//! The schedule keeps **at most one node down at a time**: when a node
//! is down, the next fired event restarts it; otherwise an up node is
//! killed. That matches the failure model the replication layer is
//! built to survive (single-node loss), so drills exercise
//! failover/rejoin cycles instead of unrecoverable multi-node outages.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One planned node-level fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeFault {
    /// Kill the node: it loses all volatile state; its durable media
    /// (WAL bytes) survive for recovery.
    Crash {
        /// The node to kill.
        node: usize,
    },
    /// Restart a previously killed node: it recovers from its durable
    /// media and rejoins.
    Restart {
        /// The node to bring back.
        node: usize,
    },
}

/// A seeded schedule of node crash/restart events over cluster
/// operations.
#[derive(Debug)]
pub struct CrashSchedule {
    rng: ChaCha8Rng,
    probability: f64,
    down: Vec<bool>,
}

impl CrashSchedule {
    /// Schedule over `n_nodes` nodes directly from `seed`, firing with
    /// `probability` per decision.
    pub fn new(seed: u64, probability: f64, n_nodes: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "crash probability {probability} outside [0,1]"
        );
        assert!(n_nodes > 0, "crash schedule needs at least one node");
        CrashSchedule {
            rng: ChaCha8Rng::seed_from_u64(seed),
            probability,
            down: vec![false; n_nodes],
        }
    }

    /// Nodes the schedule currently believes are down.
    pub fn down_nodes(&self) -> Vec<usize> {
        self.down
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.then_some(i))
            .collect()
    }

    /// Decide the node fault (if any) preceding the next cluster
    /// operation. Always draws exactly two RNG values (roll, pick) so
    /// the schedule depends only on `(seed, op index)`.
    pub fn decide(&mut self) -> Option<NodeFault> {
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        let pick: u64 = self.rng.gen_range(0..u64::MAX);
        if roll >= self.probability {
            return None;
        }
        let downed: Vec<usize> = self.down_nodes();
        let fault = if downed.is_empty() {
            let node = (pick % self.down.len() as u64) as usize;
            self.down[node] = true;
            NodeFault::Crash { node }
        } else {
            let node = downed[(pick % downed.len() as u64) as usize];
            self.down[node] = false;
            NodeFault::Restart { node }
        };
        Some(fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, p: f64, nodes: usize, ops: usize) -> Vec<Option<NodeFault>> {
        let mut cs = CrashSchedule::new(seed, p, nodes);
        (0..ops).map(|_| cs.decide()).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = run(7, 0.3, 4, 100);
        assert_eq!(a, run(7, 0.3, 4, 100));
        assert!(a.iter().any(Option::is_some));
        assert!(a.iter().any(Option::is_none));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(run(1, 0.5, 4, 80), run(2, 0.5, 4, 80));
    }

    #[test]
    fn at_most_one_node_down_and_crash_restart_alternate_per_node() {
        let mut cs = CrashSchedule::new(11, 1.0, 3);
        let mut down: Option<usize> = None;
        for _ in 0..50 {
            match cs.decide().expect("p=1 always fires") {
                NodeFault::Crash { node } => {
                    assert_eq!(down, None, "crashed while another node was down");
                    down = Some(node);
                }
                NodeFault::Restart { node } => {
                    assert_eq!(down, Some(node), "restarted a node that was not down");
                    down = None;
                }
            }
            assert!(cs.down_nodes().len() <= 1);
        }
    }

    #[test]
    fn zero_probability_never_fires_but_advances() {
        let mut cs = CrashSchedule::new(3, 0.0, 2);
        for _ in 0..20 {
            assert_eq!(cs.decide(), None);
        }
        assert!(cs.down_nodes().is_empty());
        // Each silent decision drew its two values: from here on it picks
        // what a firing schedule on the same seed picks after 20 decisions.
        let mut silent = CrashSchedule {
            probability: 1.0,
            ..cs
        };
        let mut firing = CrashSchedule::new(3, 1.0, 2);
        for _ in 0..20 {
            firing.decide();
        }
        firing.down.fill(false);
        let next = |s: &mut CrashSchedule| (0..16).map(|_| s.decide()).collect::<Vec<_>>();
        assert_eq!(next(&mut silent), next(&mut firing));
    }

    #[test]
    fn single_node_cluster_cycles_kill_restart() {
        let mut cs = CrashSchedule::new(5, 1.0, 1);
        assert_eq!(cs.decide(), Some(NodeFault::Crash { node: 0 }));
        assert_eq!(cs.decide(), Some(NodeFault::Restart { node: 0 }));
        assert_eq!(cs.decide(), Some(NodeFault::Crash { node: 0 }));
    }
}
