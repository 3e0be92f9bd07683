//! # dio-cluster
//!
//! Sharded serving with replicated failover for the dio stack.
//!
//! A [`Cluster`] simulates N nodes in one process: metric families are
//! partitioned across shards by a consistent-hash ring (one
//! shard's primary per node, its replica on the next node), writes are
//! WAL-shipped from primary to replica with CRC validation and
//! re-shipping (ack only after the replica applied — zero
//! acknowledged-write loss through any single node crash), and reads
//! are routed by a scatter-gather resolver that either pushes a query
//! down to the single owning shard or gathers the named families into
//! a scratch store — producing the same results as a single-node
//! store.
//!
//! The cluster plugs into the existing stack through two seams:
//!
//! * `dio_sandbox::StoreResolver` — [`Cluster`] implements it, so a
//!   copilot with `attach_store_resolver(cluster)` evaluates PromQL
//!   against the sharded store with no other changes; resolution
//!   failures ride the sandbox's retryable storage-fault path.
//! * `dio_faults` — the replication link draws its faults (bit flips,
//!   torn chunks, lost shipments) from a seeded injector, and node
//!   kill/restart drills replay [`dio_faults::CrashSchedule`].

#![warn(missing_docs)]

mod cluster;
mod ring;
mod shard;

pub use cluster::{Cluster, ClusterConfig, ClusterError};
pub use shard::{ShardCopy, ShipReject};

#[cfg(test)]
mod assertions {
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn cluster_is_shareable_across_serving_workers() {
        assert_send_sync::<crate::Cluster>();
    }
}
