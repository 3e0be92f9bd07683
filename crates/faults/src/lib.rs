//! # dio-faults
//!
//! The cluster's counterpart of `dio-llm`'s `FaultyModel`: the seeded
//! schedules `dio-cluster` and its drills replay.
//!
//! Two pieces:
//!
//! * [`Injector`] — a seeded fault schedule over replication-link
//!   shipments (slow, lost, torn or bit-flipped chunks). Like
//!   `FaultyModel`, the schedule is a pure function of
//!   `(seed, op index)`: every operation draws the same number of RNG
//!   values whether or not a fault fires, so outcomes never perturb
//!   the schedule and any run replays exactly.
//! * [`CrashSchedule`] — the seeded node kill/restart plan the failover
//!   drills replay.
//!
//! This crate is a leaf: it must not depend on `dio-obs` (which pulls
//! in `dio-tsdb`), so fault *counting* is done by its callers.

mod crash;
mod injector;

pub use crash::{CrashSchedule, NodeFault};
pub use injector::{ChaosConfig, DataFaultKind, Injector, PlannedFault};
