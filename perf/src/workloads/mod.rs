//! The four workloads. Each builds its own world, runs whole passes
//! until the time box is spent, and checks its outputs.

pub mod ask_cold;
pub mod dash_refresh;
pub mod serve_mixed;
pub mod shard_failover;
