//! # dio-faults
//!
//! The data-plane counterpart of `dio-llm`'s `FaultyModel`: a shared
//! chaos layer for the stateful paths (`dio-cluster`'s replication link
//! and node crashes, the copilot's retrieval and sandboxed execution).
//!
//! Two pieces:
//!
//! * [`Injector`] — a seeded fault schedule over storage operations
//!   (latency spikes, transient I/O errors, truncated reads, bit
//!   flips). Like `FaultyModel`, the schedule is a pure function of
//!   `(seed, op index)`: every operation draws the same number of RNG
//!   values whether or not a fault fires, so outcomes never perturb
//!   the schedule and any run replays exactly.
//! * [`CrashSchedule`] — the seeded node kill/restart plan the failover
//!   drills replay.
//!
//! This crate is a leaf: it must not depend on `dio-obs` (which pulls
//! in `dio-tsdb`), so fault *counting* is done by callers draining the
//! injector's event log into their own registries.

mod crash;
mod injector;

pub use crash::{CrashSchedule, NodeFault};
pub use injector::{ChaosConfig, DataFaultKind, Injector, PlannedFault};
