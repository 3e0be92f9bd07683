//! # dio-faults
//!
//! The data-plane counterpart of `dio-llm`'s `FaultyModel`: a shared
//! chaos layer for the stateful paths (`dio-tsdb`'s WAL and snapshots,
//! `dio-cluster`'s replication link, the copilot's retrieval and
//! sandboxed execution) plus the crash-consistent persistence
//! primitives `dio-tsdb` builds on.
//!
//! Three pieces:
//!
//! * [`Injector`] — a seeded fault schedule over storage operations
//!   (latency spikes, transient I/O errors, truncated reads, bit
//!   flips). Like `FaultyModel`, the schedule is a pure function of
//!   `(seed, op index)`: every operation draws the same number of RNG
//!   values whether or not a fault fires, so outcomes never perturb
//!   the schedule and any run replays exactly.
//! * `framing` — checksummed, length-prefixed record framing for
//!   snapshots and write-ahead logs. A scan quarantines corrupt frames
//!   and distinguishes clean truncation (a torn final write) from
//!   mid-stream corruption, resynchronising on the record magic.
//! * [`Medium`] — the byte-level storage abstraction WALs and
//!   snapshots write through, with an in-memory implementation
//!   ([`MemMedium`]) and a chaos wrapper ([`ChaosMedium`]) that applies
//!   an injector's schedule to every load/append.
//!
//! This crate is a leaf: it must not depend on `dio-obs` (which pulls
//! in `dio-tsdb`), so fault *counting* is done by callers draining the
//! injector's event log into their own registries.

mod crash;
mod crc32;
mod framing;
mod injector;
mod medium;

pub use crash::{CrashSchedule, NodeFault};
pub use framing::{decode_all, encode_record, frames, Frame, Frames, FRAME_HEADER_LEN, MAGIC};
pub use injector::{ChaosConfig, DataFaultKind, Injector, PlannedFault};
pub use medium::{ChaosMedium, MemMedium, Medium};
