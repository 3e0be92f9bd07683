//! The cluster: topology, appends, replication, failover, routing.
//!
//! A [`Cluster`] simulates N nodes in one process. Shard `i`'s primary
//! lives on node `i`; its replica on node `(i+1) % N` (no replica when
//! `N == 1`). Metric families are placed on shards by the consistent
//! hash ring, so every family's data lives on exactly one shard — the
//! invariant the scatter-gather router leans on for result parity with
//! a single-node store.
//!
//! **Write path.** An append routes by family to the owning shard's
//! primary, frames into the primary WAL (the durability point), then
//! synchronously ships the WAL gap to the replica. `Ok` is returned
//! only once the replica applied the chunk (or has no live replica —
//! the tolerated degraded window). Ack-implies-replicated is what
//! makes "zero acknowledged-write loss through one node crash" hold:
//! whichever copy survives has every acked record.
//!
//! **Failover.** Primary liveness is checked on access. A dead primary
//! promotes the replica once whatever lies past its verified watermark
//! scans clean — every byte below it was checked when it entered the
//! copy, so the promotion does not re-read the log; the old primary's
//! durable bytes stay around so a restart can rebuild the copy, catch
//! up the missing suffix from the promoted primary, and rejoin as the
//! new replica.
//!
//! **Read path.** [`Cluster`] implements `dio_sandbox::StoreResolver`:
//! queries naming families on one shard are pushed down (an `Arc`
//! clone of that shard's store), queries spanning shards gather the
//! named families into a scratch store, and dynamic selectors (regex /
//! name-pattern) gather every shard. Resolution failures surface as
//! retryable storage faults, riding the copilot's existing
//! retry-then-degrade machinery.

use crate::ring::HashRing;
use crate::shard::{damage_chunk, ShardCopy, ShipReject};
use dio_faults::{ChaosConfig, Injector};
use dio_obs::{push_bounded, Buckets, Counter, Gauge, Histogram, Registry, SpanContext, Tracer};
use dio_sandbox::StoreResolver;
use dio_tsdb::{AppendError, Labels, MetricStore, Sample};
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cluster shape and replication behaviour.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node (== shard) count. WALs are shipped to replicas whenever
    /// there is more than one node.
    pub nodes: usize,
    /// Chaos schedule for the replication link (bit flips, torn
    /// chunks, lost shipments). `None` = a clean link.
    pub link_chaos: Option<ChaosConfig>,
}

/// Chaotic ship attempts per chunk before falling back to the
/// reliable recovery channel (a retransmitting transport delivers
/// eventually; this bounds how long we let chaos stall an ack).
const MAX_RESHIPS: usize = 4;

impl ClusterConfig {
    /// `nodes` nodes, replication on (when more than one), clean link.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        ClusterConfig {
            nodes,
            link_chaos: None,
        }
    }

    /// Same, with a chaotic replication link.
    pub fn with_link_chaos(nodes: usize, chaos: ChaosConfig) -> Self {
        let mut c = Self::new(nodes);
        c.link_chaos = Some(chaos);
        c
    }
}

/// Errors from the write path.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The store rejected the sample (out of order). Matches
    /// single-node semantics; the record is WAL-logged on every copy.
    Rejected(AppendError),
    /// The shard has no live copy: primary down and no promotable
    /// replica. Retryable once a node restarts.
    Unavailable {
        /// The shard without a live primary.
        shard: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Rejected(e) => write!(f, "append rejected: {e}"),
            ClusterError::Unavailable { shard } => {
                write!(f, "shard {shard} unavailable: no live copy")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// A successful acknowledged append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendAck {
    /// The shard that owns the family.
    pub shard: usize,
    /// True when a live replica applied the record before the ack.
    /// False only in the degraded single-copy window.
    pub replicated: bool,
}

/// What restarting a node did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RejoinReport {
    /// Shard copies rebuilt from durable WAL bytes.
    pub recovered_copies: usize,
    /// WAL bytes replayed from the node's own durable media.
    pub replayed_wal_bytes: usize,
    /// Records caught up from the current primaries.
    pub caught_up_records: usize,
    /// Bytes shipped for catch-up.
    pub caught_up_bytes: usize,
    /// Shards where the node resumed as primary (it died unnoticed —
    /// nothing triggered a failover while it was down — and rebuilt at
    /// least as many records as its live replica holds).
    pub resumed_primary: usize,
    /// Shards the node rejoined as replica.
    pub rejoined_replica: usize,
    /// Copies rebuilt from their primary's log because their own was
    /// not a byte prefix of it: a double failure left them records the
    /// surviving copy never got, and those are lost.
    pub reseeded_copies: usize,
}

/// Span name for one shard touched during store resolution. Attributes:
/// `shard` and `path` (`pushdown` | `gather` | `gather_all`).
pub(crate) const SHARD_READ_SPAN: &str = "shard_read";
/// Span name for the synchronous WAL shipment inside a traced append.
pub(crate) const WAL_SHIP_SPAN: &str = "wal_ship";

/// How many of the newest undrained failover latencies are kept.
const FAILOVER_LATENCY_WINDOW: usize = 256;

const HELP_FAILOVERS: &str = "Replica promotions after a primary was found dead";
const HELP_LAG: &str = "Worst primary-to-replica applied-timestamp gap across shards (s)";
const HELP_LAG_HIST: &str = "Per-shard primary-to-replica applied-timestamp gap at each lag refresh (s)";
const HELP_RESHIPS: &str = "Replication chunks re-sent after loss or CRC rejection";
const HELP_APPENDS: &str = "Acknowledged cluster appends";
const HELP_ROUTES: &str = "Query store resolutions by routing path";
const HELP_UNAVAILABLE: &str = "Operations refused because a shard had no live copy";

#[derive(Debug)]
struct ClusterMetrics {
    registry: Registry,
    failovers: Counter,
    lag: Gauge,
    lag_hist: Histogram,
    reships: Counter,
    appends: Counter,
    route_pushdown: Counter,
    route_gather: Counter,
    route_gather_all: Counter,
    unavailable: Counter,
}

impl ClusterMetrics {
    fn new(registry: Registry) -> Self {
        ClusterMetrics {
            failovers: registry.counter("dio_cluster_failovers_total", HELP_FAILOVERS),
            lag: registry.gauge("dio_cluster_replication_lag_worst_seconds", HELP_LAG),
            lag_hist: registry.histogram(
                "dio_cluster_replication_lag_seconds",
                HELP_LAG_HIST,
                &Buckets::exponential(0.001, 4.0, 10),
            ),
            reships: registry.counter("dio_cluster_reships_total", HELP_RESHIPS),
            appends: registry.counter("dio_cluster_appends_total", HELP_APPENDS),
            route_pushdown: registry.counter_with(
                "dio_cluster_routes_total",
                HELP_ROUTES,
                &[("path", "pushdown")],
            ),
            route_gather: registry.counter_with(
                "dio_cluster_routes_total",
                HELP_ROUTES,
                &[("path", "gather")],
            ),
            route_gather_all: registry.counter_with(
                "dio_cluster_routes_total",
                HELP_ROUTES,
                &[("path", "gather_all")],
            ),
            unavailable: registry.counter("dio_cluster_unavailable_total", HELP_UNAVAILABLE),
            registry,
        }
    }
}

#[derive(Debug)]
struct ShardState {
    primary_node: usize,
    replica_node: Option<usize>,
    /// Copies by hosting node. Dead nodes keep their entry — that is
    /// the durable media a restart recovers from.
    copies: BTreeMap<usize, ShardCopy>,
}

#[derive(Debug)]
struct Inner {
    ring: HashRing,
    /// Liveness by node id.
    up: Vec<bool>,
    /// By shard id (dense; the cluster never removes shards).
    shards: Vec<ShardState>,
    /// Chaos on the replication link.
    link: Option<Injector>,
    /// Detection-to-takeover times (µs), drained by the bench; the
    /// newest [`FAILOVER_LATENCY_WINDOW`] are kept.
    failover_latencies: VecDeque<u64>,
}

/// Borrow two of a shard's copies at once: `from` to read its WAL,
/// `to` to append what it is missing. Shipping borrows the source's
/// bytes instead of copying them out first.
fn ship_pair(
    copies: &mut BTreeMap<usize, ShardCopy>,
    from: usize,
    to: usize,
) -> (&ShardCopy, &mut ShardCopy) {
    let (mut source, mut dest) = (None, None);
    for (&node, copy) in copies.iter_mut() {
        if node == from {
            source = Some(&*copy);
        } else if node == to {
            dest = Some(copy);
        }
    }
    (
        source.expect("source copy exists"),
        dest.expect("destination copy exists"),
    )
}

/// A simulated shard-per-node cluster with WAL-shipping replication.
#[derive(Debug)]
pub struct Cluster {
    inner: Mutex<Inner>,
    metrics: ClusterMetrics,
}

impl Cluster {
    /// Build a cluster with its own private metrics registry.
    pub fn new(cfg: ClusterConfig) -> Self {
        Self::with_registry(cfg, Registry::new())
    }

    /// Build a cluster registering its metrics into `registry` (so a
    /// serving stack scrapes cluster health alongside everything else).
    pub fn with_registry(cfg: ClusterConfig, registry: Registry) -> Self {
        let n = cfg.nodes;
        let shards = (0..n)
            .map(|i| {
                let replica_node = (n > 1).then_some((i + 1) % n);
                let mut copies = BTreeMap::new();
                copies.insert(i, ShardCopy::new());
                if let Some(r) = replica_node {
                    copies.insert(r, ShardCopy::new());
                }
                ShardState {
                    primary_node: i,
                    replica_node,
                    copies,
                }
            })
            .collect();
        let link = cfg.link_chaos.as_ref().map(|c| Injector::derived(c, "replication"));
        Cluster {
            inner: Mutex::new(Inner {
                ring: HashRing::new(n),
                up: vec![true; n],
                shards,
                link,
                failover_latencies: VecDeque::new(),
            }),
            metrics: ClusterMetrics::new(registry),
        }
    }

    /// The metrics registry (cluster counters live here).
    pub fn registry(&self) -> &Registry {
        &self.metrics.registry
    }

    /// Current shard count.
    pub fn shard_count(&self) -> usize {
        self.inner.lock().unwrap().shards.len()
    }

    /// Nodes currently down.
    pub fn down_nodes(&self) -> Vec<usize> {
        let inner = self.inner.lock().unwrap();
        inner
            .up
            .iter()
            .enumerate()
            .filter_map(|(i, u)| (!u).then_some(i))
            .collect()
    }

    /// The node currently holding `shard`'s primary seat.
    pub fn primary_of(&self, shard: usize) -> usize {
        self.inner.lock().unwrap().shards[shard].primary_node
    }

    /// The node holding `shard`'s replica, if any.
    #[cfg(test)]
    pub(crate) fn replica_of(&self, shard: usize) -> Option<usize> {
        self.inner.lock().unwrap().shards[shard].replica_node
    }

    /// The shard owning metric family `family`.
    pub fn shard_for(&self, family: &str) -> usize {
        self.inner.lock().unwrap().ring.owner(family)
    }

    /// Primary and replica WAL byte images for `shard` (tests use this
    /// to prove byte-level convergence).
    #[cfg(test)]
    pub(crate) fn shard_wal_images(&self, shard: usize) -> (Vec<u8>, Option<Vec<u8>>) {
        let inner = self.inner.lock().unwrap();
        let s = &inner.shards[shard];
        let primary = s.copies[&s.primary_node].wal_bytes().to_vec();
        let replica = s
            .replica_node
            .map(|r| s.copies[&r].wal_bytes().to_vec());
        (primary, replica)
    }

    /// Acked records per shard on the current primaries.
    #[cfg(test)]
    pub(crate) fn shard_records(&self) -> Vec<usize> {
        let inner = self.inner.lock().unwrap();
        inner
            .shards
            .iter()
            .map(|s| s.copies[&s.primary_node].records())
            .collect()
    }

    /// Worst primary-to-replica applied-timestamp gap (seconds).
    pub fn replication_lag_seconds(&self) -> f64 {
        self.metrics.lag.value()
    }

    /// Failovers performed so far.
    pub fn failovers(&self) -> u64 {
        self.metrics.failovers.value() as u64
    }

    /// Replication chunks re-sent after damage or loss.
    pub fn reships(&self) -> u64 {
        self.metrics.reships.value() as u64
    }

    /// Drain recorded detection-to-takeover latencies (µs): the newest
    /// [`FAILOVER_LATENCY_WINDOW`] since the last drain.
    pub fn take_failover_latencies(&self) -> Vec<u64> {
        std::mem::take(&mut self.inner.lock().unwrap().failover_latencies).into()
    }

    /// Load every series of a single-node store into the cluster
    /// (bulk path: local appends per shard, then one catch-up ship per
    /// shard). Returns the number of samples loaded.
    pub fn load_from(&self, source: &MetricStore) -> Result<usize, ClusterError> {
        let mut inner = self.inner.lock().unwrap();
        let mut loaded = 0usize;
        for series in source.iter() {
            let family = series.labels().name().unwrap_or("").to_string();
            let shard = inner.ring.owner(&family);
            self.ensure_primary(&mut inner, shard, None)
                .map_err(|e| self.note_unavailable(e))?;
            let primary = inner.shards[shard].primary_node;
            let copy = inner.shards[shard]
                .copies
                .get_mut(&primary)
                .expect("primary copy exists");
            for sample in series.samples() {
                copy.append_local(series.labels().clone(), sample)
                    .map_err(ClusterError::Rejected)?;
                loaded += 1;
            }
        }
        let shard_count = inner.shards.len();
        for shard in 0..shard_count {
            self.ship(&mut inner, shard);
        }
        self.metrics.appends.add(loaded as f64);
        self.update_lag(&inner);
        Ok(loaded)
    }

    /// Append one sample. `Ok` means the record is framed in the
    /// primary WAL *and* applied by a live replica (when one exists):
    /// the ack survives any single node crash.
    pub fn append(&self, labels: Labels, sample: Sample) -> Result<AppendAck, ClusterError> {
        self.append_traced(labels, sample, None)
    }

    /// [`Cluster::append`] with an optional trace context: the
    /// synchronous WAL shipment is recorded as a [`WAL_SHIP_SPAN`]
    /// child span, and a failover triggered by the append lands as a
    /// [`dio_obs::FAILOVER_SPAN`] on the same trace.
    pub fn append_traced(
        &self,
        labels: Labels,
        sample: Sample,
        trace: Option<(&Tracer, &SpanContext)>,
    ) -> Result<AppendAck, ClusterError> {
        let family = labels.name().unwrap_or("").to_string();
        let mut inner = self.inner.lock().unwrap();
        let shard = inner.ring.owner(&family);
        self.ensure_primary(&mut inner, shard, trace)
            .map_err(|e| self.note_unavailable(e))?;
        let primary = inner.shards[shard].primary_node;
        let copy = inner.shards[shard]
            .copies
            .get_mut(&primary)
            .expect("primary copy exists");
        let applied = copy.append_local(labels, sample);
        // Ship before surfacing a rejection: the rejected record is
        // WAL-logged and the replica must mirror it byte-for-byte.
        let ship_span = trace.map(|(tracer, parent)| {
            let ctx = tracer.child_of(parent);
            (tracer, ctx, tracer.clock_micros(&ctx), Instant::now())
        });
        let replicated = self.ship(&mut inner, shard);
        if let Some((tracer, ctx, start, t0)) = ship_span {
            tracer.record_span(
                &ctx,
                WAL_SHIP_SPAN,
                start,
                dio_obs::micros_u64(t0.elapsed()),
                &[
                    ("shard", &shard.to_string()),
                    ("replicated", if replicated { "true" } else { "false" }),
                ],
            );
        }
        self.update_lag(&inner);
        match applied {
            Ok(()) => {
                self.metrics.appends.inc();
                Ok(AppendAck { shard, replicated })
            }
            Err(e) => Err(ClusterError::Rejected(e)),
        }
    }

    /// Kill a node: it stops serving and loses volatile state. Its
    /// WAL bytes (durable media) survive for [`Cluster::restart_node`].
    /// Returns whether the node was up.
    pub fn kill_node(&self, node: usize) -> bool {
        let mut inner = self.inner.lock().unwrap();
        std::mem::replace(&mut inner.up[node], false)
    }

    /// Restart a dead node: rebuild every copy it hosts from durable
    /// WAL bytes (the volatile store is dropped and replayed — the
    /// crash-consistency path), catch up missing records from the
    /// current primaries over the reliable channel (a copy whose log is
    /// not a prefix of its primary's is rebuilt from the primary's
    /// instead), and rejoin as replica wherever the shard lost one.
    pub fn restart_node(&self, node: usize) -> RejoinReport {
        let mut inner = self.inner.lock().unwrap();
        let mut report = RejoinReport::default();
        if std::mem::replace(&mut inner.up[node], true) {
            return report; // already up
        }
        for shard in 0..inner.shards.len() {
            if !inner.shards[shard].copies.contains_key(&node) {
                continue;
            }
            // Crash-consistent rebuild from the node's own durable log.
            let durable = inner.shards[shard].copies[&node].wal_bytes();
            let (rebuilt, _) = ShardCopy::recover_from_bytes(durable);
            report.recovered_copies += 1;
            report.replayed_wal_bytes += durable.len();
            inner.shards[shard].copies.insert(node, rebuilt);

            // If the shard's primary seat is dead, settle it first so
            // catch-up reads from a live log. Normally this promotes
            // the standing replica; if no other copy is live, the
            // restarting node itself takes over (best effort — under
            // a double failure its log may be the shorter one, which
            // is outside the single-failure tolerance).
            if self.ensure_primary(&mut inner, shard, None).is_err() {
                inner.shards[shard].primary_node = node;
                inner.shards[shard].replica_node = None;
                self.metrics.failovers.inc();
            }
            if inner.shards[shard].primary_node == node {
                // Either it died unnoticed (nothing routed here while
                // it was down) or it just took the seat back as the
                // only live copy. Unnoticed, its log is the longest
                // unless rot cut its rebuild short: then a live replica
                // holding more records takes the seat, and this node
                // catches up from it below.
                let s = &inner.shards[shard];
                let longer = s.replica_node.filter(|&r| {
                    inner.up[r]
                        && s.copies[&r].records() > s.copies[&node].records()
                        && s.copies[&r].unverified_suffix_is_clean()
                });
                let Some(replica) = longer else {
                    report.resumed_primary += 1;
                    continue;
                };
                inner.shards[shard].primary_node = replica;
                inner.shards[shard].replica_node = None;
                self.metrics.failovers.inc();
            }
            // Catch up the suffix it missed from the current primary,
            // then take (or retake) the replica seat. A log that is not
            // a prefix of the primary's has no suffix to catch up: a
            // double failure gave it records the surviving copy never
            // got, so it starts over from the primary's log.
            let primary = inner.shards[shard].primary_node;
            let (source, copy) = ship_pair(&mut inner.shards[shard].copies, primary, node);
            if !source.wal_bytes().starts_with(copy.wal_bytes()) {
                *copy = ShardCopy::new();
                report.reseeded_copies += 1;
            }
            let chunk = source.bytes_from(copy.records());
            if !chunk.is_empty() {
                let apply = copy
                    .apply_shipped(chunk)
                    .expect("reliable catch-up channel delivers pristine bytes");
                report.caught_up_records += apply.applied + apply.rejected;
                report.caught_up_bytes += chunk.len();
            }
            if inner.shards[shard].replica_node.is_none() {
                inner.shards[shard].replica_node = Some(node);
            }
            report.rejoined_replica += 1;
        }
        self.update_lag(&inner);
        report
    }

    fn note_unavailable(&self, e: ClusterError) -> ClusterError {
        self.metrics.unavailable.inc();
        e
    }

    /// Make sure `shard` has a live primary, promoting the replica if
    /// the primary is dead (failure detection happens on access). When
    /// a trace context rides along, the promotion is recorded as a
    /// [`dio_obs::FAILOVER_SPAN`] child span covering detection to
    /// takeover, which marks the trace that paid for the failover.
    fn ensure_primary(
        &self,
        inner: &mut Inner,
        shard: usize,
        trace: Option<(&Tracer, &SpanContext)>,
    ) -> Result<(), ClusterError> {
        let primary = inner.shards[shard].primary_node;
        if inner.up[primary] {
            return Ok(());
        }
        let detected = Instant::now();
        let detect_offset = trace.map(|(t, ctx)| t.clock_micros(ctx)).unwrap_or(0);
        let Some(replica) = inner.shards[shard].replica_node.filter(|r| inner.up[*r]) else {
            return Err(ClusterError::Unavailable { shard });
        };
        // Takeover: the replica's log was verified as it arrived, so
        // only bytes past its watermark are still owed a scan. Damage
        // there means the copy cannot be trusted to serve.
        if !inner.shards[shard].copies[&replica].unverified_suffix_is_clean() {
            return Err(ClusterError::Unavailable { shard });
        }
        inner.shards[shard].primary_node = replica;
        inner.shards[shard].replica_node = None;
        self.metrics.failovers.inc();
        let micros = detected.elapsed().as_micros() as u64;
        push_bounded(&mut inner.failover_latencies, FAILOVER_LATENCY_WINDOW, micros);
        if let Some((tracer, ctx)) = trace {
            let child = tracer.child_of(ctx);
            tracer.record_span(
                &child,
                dio_obs::FAILOVER_SPAN,
                detect_offset,
                micros,
                &[
                    ("shard", &shard.to_string()),
                    ("from_node", &primary.to_string()),
                    ("to_node", &replica.to_string()),
                ],
            );
        }
        Ok(())
    }

    /// Ship the primary's unreplicated WAL suffix to the replica.
    /// Damaged or lost chunks are re-sent (bounded chaotic attempts,
    /// then the reliable recovery channel). Returns whether a live
    /// replica holds everything.
    fn ship(&self, inner: &mut Inner, shard: usize) -> bool {
        let Some(replica) = inner.shards[shard].replica_node else {
            return false;
        };
        if !inner.up[replica] {
            return false; // degraded window: ack on primary alone
        }
        let primary = inner.shards[shard].primary_node;
        let (source, copy) = ship_pair(&mut inner.shards[shard].copies, primary, replica);
        let mut attempts = 0usize;
        while copy.records() < source.records() {
            let chunk = source.bytes_from(copy.records());
            // Pass the chunk through the (possibly chaotic) link; past
            // `MAX_RESHIPS` it goes over the reliable recovery channel.
            let fault = if attempts < MAX_RESHIPS {
                inner.link.as_mut().and_then(|l| l.decide())
            } else {
                None
            };
            let delivered = match fault {
                Some(fault) => damage_chunk(fault, chunk),
                None => Some(Cow::Borrowed(chunk)),
            };
            let outcome = match delivered {
                None => Err(ShipReject::Lost),
                Some(bytes) => copy.apply_shipped(&bytes),
            };
            if outcome.is_err() {
                attempts += 1;
                self.metrics.reships.inc();
            }
        }
        true
    }

    /// Refresh the worst-shard replication lag gauge and feed each
    /// shard's current gap into the lag distribution histogram.
    fn update_lag(&self, inner: &Inner) {
        let mut worst = 0.0f64;
        for s in &inner.shards {
            let Some(r) = s.replica_node else { continue };
            let p_ts = s.copies[&s.primary_node].last_timestamp().unwrap_or(0);
            let r_ts = s.copies[&r].last_timestamp().unwrap_or(0);
            let lag = (p_ts - r_ts).max(0) as f64 / 1_000.0;
            self.metrics.lag_hist.observe(lag);
            worst = worst.max(lag);
        }
        self.metrics.lag.set(worst);
    }

    /// Gather the named families (in order) from their owning shards
    /// into a scratch store. Caller already ensured primaries are live
    /// and passed the stores out of the lock.
    fn merge_families(
        families: &[String],
        stores: &[(usize, Arc<MetricStore>)],
    ) -> MetricStore {
        let mut merged = MetricStore::new();
        for family in families {
            for (_, store) in stores {
                for series in store.series_for(family) {
                    // Sealed chunks move compressed — no decode on the
                    // gather path; overlapping replicas merge per
                    // sample with duplicates skipped.
                    let _ = merged.adopt_series(series.clone());
                }
            }
        }
        merged
    }

    /// Touch `shard` under a per-shard [`SHARD_READ_SPAN`]: ensure a
    /// live primary (recording any promotion on the trace) and hand out
    /// its store. The span covers detection/promotion plus the store
    /// fetch and is tagged with the routing path.
    fn read_shard(
        &self,
        inner: &mut Inner,
        shard: usize,
        path: &str,
        trace: Option<(&Tracer, &SpanContext)>,
    ) -> Result<Arc<MetricStore>, String> {
        let span = trace.map(|(tracer, parent)| {
            let ctx = tracer.child_of(parent);
            (tracer, ctx, tracer.clock_micros(&ctx), Instant::now())
        });
        let ensured = self
            .ensure_primary(inner, shard, span.as_ref().map(|(t, ctx, _, _)| (*t, ctx)))
            .map_err(|e| self.note_unavailable(e).to_string());
        if let Some((tracer, ctx, start, t0)) = span {
            tracer.record_span(
                &ctx,
                SHARD_READ_SPAN,
                start,
                dio_obs::micros_u64(t0.elapsed()),
                &[("shard", &shard.to_string()), ("path", path)],
            );
        }
        ensured?;
        let s = &inner.shards[shard];
        Ok(s.copies[&s.primary_node].store())
    }
}

impl StoreResolver for Cluster {
    /// Resolve the store a query should evaluate against. Dead
    /// primaries fail over here — detection-on-access — so a query
    /// arriving mid-crash either lands on the promoted replica or
    /// surfaces a retryable storage fault.
    fn resolve(&self, families: &[String], dynamic: bool) -> Result<Arc<MetricStore>, String> {
        self.resolve_traced(families, dynamic, None)
    }

    /// [`StoreResolver::resolve`] with an optional trace context: each
    /// shard touched is recorded as a [`SHARD_READ_SPAN`] child span
    /// tagged `path=pushdown|gather|gather_all`, and any promotion the
    /// resolution triggered lands as a [`dio_obs::FAILOVER_SPAN`].
    fn resolve_traced(
        &self,
        families: &[String],
        dynamic: bool,
        trace: Option<(&Tracer, &SpanContext)>,
    ) -> Result<Arc<MetricStore>, String> {
        let mut inner = self.inner.lock().unwrap();
        if dynamic || families.is_empty() {
            // Name-pattern selectors need the full keyspace.
            let shard_count = inner.shards.len();
            let mut stores = Vec::with_capacity(shard_count);
            for shard in 0..shard_count {
                stores.push(self.read_shard(&mut inner, shard, "gather_all", trace)?);
            }
            drop(inner);
            self.metrics.route_gather_all.inc();
            let mut merged = MetricStore::new();
            for store in stores {
                for series in store.iter() {
                    let _ = merged.adopt_series(series.clone());
                }
            }
            return Ok(Arc::new(merged));
        }

        // Owning shards, first-occurrence order.
        let mut shards: Vec<usize> = Vec::new();
        for family in families {
            let s = inner.ring.owner(family);
            if !shards.contains(&s) {
                shards.push(s);
            }
        }
        let path = if shards.len() == 1 { "pushdown" } else { "gather" };
        let mut stores = Vec::with_capacity(shards.len());
        for &shard in &shards {
            stores.push((shard, self.read_shard(&mut inner, shard, path, trace)?));
        }
        drop(inner);

        if let [(_, store)] = stores.as_slice() {
            // Single owner: push the query down to the shard's own
            // store. It holds a superset of the named families, but
            // evaluation only touches the names in the query.
            self.metrics.route_pushdown.inc();
            return Ok(Arc::clone(store));
        }
        self.metrics.route_gather.inc();
        Ok(Arc::new(Self::merge_families(families, &stores)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_tsdb::NAME_LABEL;

    fn labels(name: &str, inst: &str) -> Labels {
        Labels::from_pairs([(NAME_LABEL, name), ("instance", inst)])
    }

    fn seed_store(families: &[&str], samples: usize) -> MetricStore {
        let mut store = MetricStore::new();
        for (fi, f) in families.iter().enumerate() {
            for i in 0..samples {
                store
                    .append(
                        labels(f, "amf-0"),
                        Sample::new(1_000 * (i as i64 + 1), (fi * 100 + i) as f64),
                    )
                    .unwrap();
            }
        }
        store
    }

    const FAMILIES: [&str; 6] = [
        "amf_registration_total",
        "smf_session_setup_seconds",
        "upf_throughput_bytes",
        "ausf_auth_reject_total",
        "nrf_discovery_requests_total",
        "pcf_policy_updates_total",
    ];

    #[test]
    fn load_partitions_and_replicates_every_family() {
        let source = seed_store(&FAMILIES, 10);
        let cluster = Cluster::new(ClusterConfig::new(3));
        let loaded = cluster.load_from(&source).unwrap();
        assert_eq!(loaded, 60);
        let records = cluster.shard_records();
        assert_eq!(records.iter().sum::<usize>(), 60);
        for shard in 0..cluster.shard_count() {
            let (p, r) = cluster.shard_wal_images(shard);
            assert_eq!(Some(p), r, "shard {shard} replica diverged after load");
        }
        assert_eq!(cluster.replication_lag_seconds(), 0.0);
    }

    #[test]
    fn acked_appends_survive_primary_kill() {
        let cluster = Cluster::new(ClusterConfig::new(3));
        let mut acked: Vec<(String, i64, f64)> = Vec::new();
        for i in 0..40i64 {
            let f = FAMILIES[(i % 6) as usize];
            let ack = cluster
                .append(labels(f, "smf-1"), Sample::new(1_000 * (i / 6 + 1), i as f64))
                .unwrap();
            assert!(ack.replicated);
            acked.push((f.to_string(), 1_000 * (i / 6 + 1), i as f64));
        }
        // Kill every node in turn (restarting in between): after each
        // failover the resolver must still see every acked sample.
        for victim in 0..3 {
            cluster.kill_node(victim);
            for (f, ts, v) in &acked {
                let store = cluster.resolve(std::slice::from_ref(f), false).unwrap();
                let found = store
                    .series_for(f)
                    .iter()
                    .flat_map(|s| s.samples())
                    .any(|s| s.timestamp_ms == *ts && s.value == *v);
                assert!(found, "acked sample {f}@{ts} lost after killing node {victim}");
            }
            cluster.restart_node(victim);
        }
        assert!(cluster.failovers() > 0, "kills never triggered a failover");
    }

    #[test]
    fn unavailable_shard_surfaces_retryable_error() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        cluster
            .append(labels("amf_registration_total", "a"), Sample::new(1_000, 1.0))
            .unwrap();
        let shard = cluster.shard_for("amf_registration_total");
        let primary = cluster.primary_of(shard);
        let replica = cluster.replica_of(shard).unwrap();
        cluster.kill_node(primary);
        cluster.kill_node(replica);
        let err = cluster
            .append(labels("amf_registration_total", "a"), Sample::new(2_000, 2.0))
            .unwrap_err();
        assert_eq!(err, ClusterError::Unavailable { shard });
        assert!(cluster
            .resolve(&["amf_registration_total".into()], false)
            .is_err());
        // Restarting either copy restores service.
        cluster.restart_node(primary);
        cluster
            .append(labels("amf_registration_total", "a"), Sample::new(3_000, 3.0))
            .unwrap();
    }

    #[test]
    fn restart_rejoins_as_replica_and_catches_up() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        let f = "amf_registration_total";
        let shard = cluster.shard_for(f);
        for i in 0..5i64 {
            cluster.append(labels(f, "a"), Sample::new(1_000 * (i + 1), i as f64)).unwrap();
        }
        let old_primary = cluster.primary_of(shard);
        cluster.kill_node(old_primary);
        // Writes continue on the promoted replica, unreplicated.
        for i in 5..10i64 {
            let ack = cluster.append(labels(f, "a"), Sample::new(1_000 * (i + 1), i as f64)).unwrap();
            assert!(!ack.replicated, "no live replica during the degraded window");
        }
        assert!(cluster.replication_lag_seconds() > 0.0 || cluster.replica_of(shard).is_none());
        let report = cluster.restart_node(old_primary);
        assert!(report.recovered_copies > 0);
        assert!(report.replayed_wal_bytes > 0, "rejoin must replay durable WAL bytes");
        assert!(report.caught_up_records >= 5, "rejoin must catch up the missed suffix");
        assert_eq!(cluster.replica_of(shard), Some(old_primary));
        let (p, r) = cluster.shard_wal_images(shard);
        assert_eq!(Some(p), r, "rejoined replica must converge byte-for-byte");
        // Fail back: kill the current primary; the rejoined replica
        // serves every acked sample.
        cluster.kill_node(cluster.primary_of(shard));
        let store = cluster.resolve(&[f.to_string()], false).unwrap();
        let total: usize = store.series_for(f).iter().map(|s| s.samples().len()).sum();
        assert_eq!(total, 10, "rejoined replica is missing acked samples");
    }

    #[test]
    fn a_primary_that_died_unnoticed_and_rotted_steps_down_and_catches_up() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        let f = "amf_registration_total";
        let shard = cluster.shard_for(f);
        let acked: Vec<(String, Sample)> = (0..9i64)
            .map(|i| (format!("amf-{}", i % 3), Sample::new(1_000 * (i + 1), i as f64)))
            .collect();
        for (instance, sample) in &acked {
            let ack = cluster.append(labels(f, instance), *sample).unwrap();
            assert!(ack.replicated);
        }
        let (primary, replica) = (cluster.primary_of(shard), cluster.replica_of(shard).unwrap());
        // Killed with no access in between, so nothing fails over; then
        // a frame in the middle of its durable log rots.
        cluster.kill_node(primary);
        let (durable, _) = cluster.shard_wal_images(shard);
        cluster.inner.lock().unwrap().shards[shard]
            .copies
            .get_mut(&primary)
            .unwrap()
            .rot(durable.len() / 2);

        let report = cluster.restart_node(primary);
        assert_eq!(report.resumed_primary, 0, "{report:?}");
        assert_eq!(report.rejoined_replica, 2, "{report:?}");
        assert!(report.caught_up_records > 0, "{report:?}");
        assert_eq!(cluster.primary_of(shard), replica);
        assert_eq!(cluster.replica_of(shard), Some(primary));
        assert_eq!(cluster.failovers(), 1);
        let (p, r) = cluster.shard_wal_images(shard);
        assert_eq!(Some(p), r, "the stepped-down node must converge byte for byte");
        // Every acked write is served — by the new primary, and by the
        // restarted node once it holds the seat again.
        for serving in ["the promoted replica", "the restarted node"] {
            let store = cluster.resolve(&[f.to_string()], false).unwrap();
            for (instance, sample) in &acked {
                let found = store
                    .series_for(f)
                    .iter()
                    .filter(|s| s.labels().get("instance") == Some(instance))
                    .flat_map(|s| s.samples())
                    .any(|s| s == *sample);
                assert!(found, "{serving} lost acked {instance}@{}", sample.timestamp_ms);
            }
            cluster.kill_node(cluster.primary_of(shard));
        }
    }

    /// A double failure on one shard of two nodes: the replica dies,
    /// the primary acks a record alone and dies, the old replica
    /// restarts and takes the seat without that record and acks
    /// `new_primary_acks` more, then the old primary restarts.
    fn double_failure(new_primary_acks: i64) -> (Cluster, usize, RejoinReport) {
        let cluster = Cluster::new(ClusterConfig::new(2));
        let f = FAMILIES[0];
        let shard = cluster.shard_for(f);
        for i in 0..3i64 {
            cluster.append(labels(f, "a"), Sample::new(1_000 * (i + 1), i as f64)).unwrap();
        }
        let (primary, replica) = (cluster.primary_of(shard), cluster.replica_of(shard).unwrap());
        cluster.kill_node(replica);
        let ack = cluster.append(labels(f, "a"), Sample::new(4_000, 3.0)).unwrap();
        assert!(!ack.replicated);
        cluster.kill_node(primary);
        cluster.restart_node(replica);
        assert_eq!(cluster.primary_of(shard), replica);
        for i in 0..new_primary_acks {
            cluster.append(labels(f, "b"), Sample::new(5_000 + i, 9.0)).unwrap();
        }
        let report = cluster.restart_node(primary);
        assert_eq!(report.reseeded_copies, 1, "{report:?}");
        assert_eq!(cluster.replica_of(shard), Some(primary));
        assert_every_copy_verified_and_converged(&cluster, "the double failure");
        (cluster, shard, report)
    }

    /// Samples of family `f` the shard serves, as `(instance, ts)`.
    fn served(cluster: &Cluster, f: &str) -> Vec<(String, i64)> {
        let store = cluster.resolve(&[f.to_string()], false).unwrap();
        let mut out: Vec<_> = store
            .series_for(f)
            .iter()
            .flat_map(|s| {
                let instance = s.labels().get("instance").unwrap_or("").to_string();
                s.samples().into_iter().map(move |x| (instance.clone(), x.timestamp_ms))
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn a_rejoining_copy_longer_than_its_primary_is_rebuilt_from_the_primary() {
        // The old primary's rebuilt log holds one record more than the
        // promoted replica's: catch-up used to index past the primary's
        // last record and panic under the cluster lock.
        let (cluster, _, report) = double_failure(0);
        assert_eq!(report.caught_up_records, 3, "{report:?}");
        // The record only the dead primary held is the double
        // failure's loss; everything the survivor acked is served by
        // both copies.
        let f = FAMILIES[0];
        let want: Vec<(String, i64)> = (1..=3).map(|i| ("a".to_string(), 1_000 * i)).collect();
        assert_eq!(served(&cluster, f), want);
        cluster.kill_node(cluster.primary_of(cluster.shard_for(f)));
        assert_eq!(served(&cluster, f), want);
    }

    #[test]
    fn a_rejoining_copy_whose_tail_diverged_at_equal_length_is_rebuilt_from_the_primary() {
        // Both logs hold four records; the fourth differs. A count
        // comparison saw nothing to catch up and seated the old primary
        // as a replica with the other tail.
        let (cluster, shard, report) = double_failure(1);
        assert_eq!(report.caught_up_records, 4, "{report:?}");
        let (p, r) = cluster.shard_wal_images(shard);
        assert_eq!(Some(p), r);
        let f = FAMILIES[0];
        let mut want: Vec<(String, i64)> = (1..=3).map(|i| ("a".to_string(), 1_000 * i)).collect();
        want.push(("b".to_string(), 5_000));
        assert_eq!(served(&cluster, f), want);
        cluster.kill_node(cluster.primary_of(shard));
        assert_eq!(served(&cluster, f), want);
    }

    #[test]
    fn chaotic_link_reships_until_converged_never_diverges() {
        let chaos = ChaosConfig::with_probability(77, 0.6);
        let cluster = Cluster::new(ClusterConfig::with_link_chaos(2, chaos));
        for i in 0..60i64 {
            let f = FAMILIES[(i % 6) as usize];
            let ack = cluster
                .append(labels(f, "upf-2"), Sample::new(1_000 * (i / 6 + 1), i as f64))
                .unwrap();
            assert!(ack.replicated, "append acked without replica apply");
        }
        assert!(cluster.reships() > 0, "p=0.6 link chaos caused no reships");
        for shard in 0..cluster.shard_count() {
            let (p, r) = cluster.shard_wal_images(shard);
            assert_eq!(Some(p), r, "shard {shard} diverged under link chaos");
        }
    }

    /// What promotion used to re-derive on every takeover, checked
    /// here instead: every copy's WAL is verified to its end, scans
    /// clean in full, and replicas equal their primaries byte for byte
    /// and sample for sample (a dead replica's durable log is a prefix
    /// of its primary's).
    fn assert_every_copy_verified_and_converged(cluster: &Cluster, after: &str) {
        let inner = cluster.inner.lock().unwrap();
        for (shard, s) in inner.shards.iter().enumerate() {
            for (node, copy) in &s.copies {
                assert_eq!(
                    copy.verified_len(),
                    copy.wal_len(),
                    "shard {shard} copy on node {node} after {after}"
                );
                assert!(
                    dio_tsdb::recover(copy.wal_bytes()).is_clean(),
                    "shard {shard} copy on node {node} after {after}"
                );
            }
            if let Some(r) = s.replica_node {
                let (primary, replica) = (&s.copies[&s.primary_node], &s.copies[&r]);
                let (p, r_bytes) = (primary.wal_bytes(), replica.wal_bytes());
                assert!(
                    if inner.up[r] {
                        p == r_bytes
                            && primary.store().sample_count() == replica.store().sample_count()
                    } else {
                        p.starts_with(r_bytes)
                    },
                    "shard {shard} replica diverged after {after}"
                );
            }
        }
    }

    #[test]
    fn every_copy_stays_verified_through_load_chaos_and_restarts() {
        let chaos = ChaosConfig::with_probability(41, 0.5);
        let cluster = Cluster::new(ClusterConfig::with_link_chaos(3, chaos));
        cluster.load_from(&seed_store(&FAMILIES, 6)).unwrap();
        assert_every_copy_verified_and_converged(&cluster, "load_from");
        let mut ts = 7_000;
        // Four appends to every family: to the series the load created,
        // or — `instance` naming a new one — to a series whose first
        // record whichever copy is primary right now has to write.
        let mut burst = |instance: &str, after: &str| {
            for f in FAMILIES {
                for _ in 0..4 {
                    ts += 1_000;
                    cluster
                        .append(labels(f, instance), Sample::new(ts, 1.0))
                        .unwrap();
                }
            }
            assert_every_copy_verified_and_converged(&cluster, after);
        };
        burst("amf-0", "a chaotic-link burst");
        assert!(cluster.reships() > 0, "p=0.5 link chaos caused no reships");
        for victim in 0..3 {
            cluster.kill_node(victim);
            // The promoted replicas go on where the dead primaries
            // stopped: known series by the references they were shipped,
            // new series under the numbers the old primary would have
            // used, so the old node's log stays a prefix of theirs.
            burst("amf-0", &format!("appends with node {victim} down"));
            burst(
                &format!("amf-{}", victim + 1),
                &format!("new series with node {victim} down"),
            );
            cluster.restart_node(victim);
            assert_every_copy_verified_and_converged(&cluster, &format!("restart of {victim}"));
            burst("amf-0", &format!("appends after {victim} rejoined"));
        }
        assert!(cluster.failovers() > 0, "kills never triggered a failover");
        assert!(cluster.down_nodes().is_empty());
    }

    #[test]
    fn damage_past_the_watermark_refuses_promotion() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        cluster.load_from(&seed_store(&FAMILIES, 4)).unwrap();
        let f = FAMILIES[0];
        let shard = cluster.shard_for(f);
        let (primary, replica) = (
            cluster.primary_of(shard),
            cluster.replica_of(shard).unwrap(),
        );
        cluster.resolve(&[f.to_string()], false).unwrap();
        // A torn frame lands on the replica's WAL behind the watermark.
        cluster.inner.lock().unwrap().shards[shard]
            .copies
            .get_mut(&replica)
            .unwrap()
            .append_unverified(&dio_tsdb::MAGIC);
        // The live primary keeps serving.
        cluster.resolve(&[f.to_string()], false).unwrap();

        // Dead primary: the damaged replica is not promoted.
        cluster.kill_node(primary);
        assert!(cluster.resolve(&[f.to_string()], false).is_err());
        assert_eq!(
            cluster
                .append(labels(f, "amf-0"), Sample::new(9_000, 1.0))
                .unwrap_err(),
            ClusterError::Unavailable { shard }
        );
        assert_eq!(cluster.failovers(), 0);
        assert_eq!(cluster.primary_of(shard), primary);
    }

    #[test]
    fn undrained_failover_latencies_are_bounded() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        let f = FAMILIES[0];
        cluster
            .append(labels(f, "amf-0"), Sample::new(1_000, 1.0))
            .unwrap();
        let shard = cluster.shard_for(f);
        for _ in 0..FAILOVER_LATENCY_WINDOW + 10 {
            let victim = cluster.primary_of(shard);
            cluster.kill_node(victim);
            cluster.resolve(&[f.to_string()], false).unwrap();
            cluster.restart_node(victim);
        }
        assert!(cluster.failovers() as usize >= FAILOVER_LATENCY_WINDOW + 10);
        assert_eq!(cluster.take_failover_latencies().len(), FAILOVER_LATENCY_WINDOW);
        assert!(cluster.take_failover_latencies().is_empty());
    }

    #[test]
    fn resolver_routes_pushdown_gather_and_gather_all() {
        let source = seed_store(&FAMILIES, 4);
        let cluster = Cluster::new(ClusterConfig::new(3));
        cluster.load_from(&source).unwrap();
        // Pushdown: one family.
        let one = cluster.resolve(&[FAMILIES[0].to_string()], false).unwrap();
        assert!(one.has_metric(FAMILIES[0]));
        // Gather: two families on (very likely) different shards —
        // find a pair with distinct owners.
        let pair: Vec<String> = {
            let s0 = cluster.shard_for(FAMILIES[0]);
            match FAMILIES.iter().find(|f| cluster.shard_for(f) != s0) {
                Some(f) => vec![FAMILIES[0].to_string(), f.to_string()],
                None => vec![FAMILIES[0].to_string()],
            }
        };
        let gathered = cluster.resolve(&pair, false).unwrap();
        for f in &pair {
            let total: usize = gathered.series_for(f).iter().map(|s| s.samples().len()).sum();
            assert_eq!(total, 4, "gather dropped samples of {f}");
        }
        // Gather-all: dynamic selector sees the whole keyspace.
        let all = cluster.resolve(&[], true).unwrap();
        assert_eq!(all.sample_count(), source.sample_count());
        let snap = cluster.registry().snapshot();
        assert!(snap.total("dio_cluster_routes_total") >= 3.0);
    }

    #[test]
    fn traced_resolve_records_shard_reads_and_failover_span() {
        let source = seed_store(&FAMILIES, 4);
        let cluster = Cluster::new(ClusterConfig::new(3));
        cluster.load_from(&source).unwrap();
        let tracer = Tracer::new();

        // Healthy gather-all: one shard_read span per shard, no
        // failover span.
        let root = tracer.begin_trace("gather all");
        cluster.resolve_traced(&[], true, Some((&tracer, &root))).unwrap();
        tracer.finish_trace(&root, dio_obs::TraceStatus::Ok);
        let rec = tracer.trace(root.trace_id).unwrap();
        let reads: Vec<_> = rec.spans.iter().filter(|s| s.name == SHARD_READ_SPAN).collect();
        assert_eq!(reads.len(), cluster.shard_count());
        assert!(reads.iter().all(|s| s.attr("path") == Some("gather_all")));
        assert!(!rec.has_span(dio_obs::FAILOVER_SPAN));
        assert_eq!(rec.orphan_count(), 0, "every span must hang off the root");

        // Kill a primary: the next traced pushdown pays for the
        // promotion and the span lands on that trace, parented under
        // its shard_read.
        let f = FAMILIES[0];
        let shard = cluster.shard_for(f);
        cluster.kill_node(cluster.primary_of(shard));
        let root = tracer.begin_trace("failover read");
        cluster
            .resolve_traced(&[f.to_string()], false, Some((&tracer, &root)))
            .unwrap();
        tracer.finish_trace(&root, dio_obs::TraceStatus::Ok);
        let rec = tracer.trace(root.trace_id).unwrap();
        let promo = rec
            .spans
            .iter()
            .find(|s| s.name == dio_obs::FAILOVER_SPAN)
            .expect("promotion must be recorded as a span");
        assert_eq!(promo.attr("shard"), Some(shard.to_string()).as_deref());
        let read = rec
            .spans
            .iter()
            .find(|s| s.name == SHARD_READ_SPAN)
            .expect("shard_read span present");
        assert_eq!(promo.parent_span_id, Some(read.span_id));
        assert_eq!(read.attr("path"), Some("pushdown"));
        assert_eq!(rec.orphan_count(), 0);

        // The lag histogram (satellite: proper histogram under the old
        // gauge's name) saw per-shard observations during load/append.
        let snap = cluster.registry().snapshot();
        let fam = snap.family("dio_cluster_replication_lag_seconds").unwrap();
        let dio_obs::SeriesValue::Histogram(h) = &fam.series[0].value else {
            panic!("replication lag must now be a histogram");
        };
        assert!(h.count > 0, "update_lag never fed the histogram");
        assert!(
            snap.family("dio_cluster_replication_lag_worst_seconds").is_some(),
            "worst-lag gauge keeps the old reading under a new name"
        );
    }

    /// SplitMix64: the generated sequences' only source of choices.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Every acknowledged sample, by family and then `instance`: what
    /// any read must return while one copy of every shard is live.
    type Model = BTreeMap<String, BTreeMap<String, Vec<(i64, u64)>>>;

    fn acked_by_instance(store: &MetricStore, family: &str) -> BTreeMap<String, Vec<(i64, u64)>> {
        let mut out: BTreeMap<String, Vec<(i64, u64)>> = BTreeMap::new();
        for series in store.series_for(family) {
            let instance = series.labels().get("instance").unwrap_or("").to_string();
            let samples = out.entry(instance).or_default();
            samples.extend(series.samples().iter().map(|s| (s.timestamp_ms, s.value.to_bits())));
        }
        out
    }

    /// One generated sequence over the public cluster API, checked
    /// against the acked-log model after every step. Node faults are
    /// single failures — a node is killed only while every other is
    /// up, and the one down node is the one restarted — the failure
    /// model replication is built to survive with no loss; the
    /// double-failure loss has its own named tests above.
    fn run_sequence(seed: u64) {
        let mut gen = Gen(seed);
        let nodes = 2 + gen.below(2);
        let steps = 20 + gen.below(181);
        let chaos = ChaosConfig::with_probability(seed, 0.5);
        let cluster = Cluster::new(ClusterConfig::new(nodes));
        let mut model = Model::new();
        if gen.below(2) == 0 {
            let source = seed_store(&FAMILIES, 3);
            cluster.load_from(&source).unwrap();
            for f in FAMILIES {
                model.insert(f.to_string(), acked_by_instance(&source, f));
            }
        }
        let (mut ts, mut instances, mut down) = (10_000i64, 1usize, None::<usize>);
        let mut trail: Vec<String> = Vec::new();
        for step in 0..steps {
            let roll = gen.below(100);
            let family = FAMILIES[gen.below(FAMILIES.len())];
            let op = match roll {
                // Append to a series the family may already hold, or
                // to a new one.
                0..=44 => {
                    let instance = if roll < 35 {
                        format!("amf-{}", gen.below(instances))
                    } else {
                        instances += 1;
                        format!("amf-{}", instances - 1)
                    };
                    ts += 1_000;
                    let value = gen.below(1_000) as f64;
                    let ack = cluster
                        .append(labels(family, &instance), Sample::new(ts, value))
                        .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}; {trail:?}"));
                    assert!(ack.replicated || down.is_some(), "seed {seed} step {step}");
                    let series = model.entry(family.to_string()).or_default();
                    series.entry(instance.clone()).or_default().push((ts, value.to_bits()));
                    format!("append {family} {instance} @{ts}")
                }
                45..=69 => {
                    let store = cluster
                        .resolve(&[family.to_string()], false)
                        .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}; {trail:?}"));
                    let want = model.get(family).cloned().unwrap_or_default();
                    assert_eq!(
                        acked_by_instance(&store, family),
                        want,
                        "seed {seed} step {step}: read {family}; {trail:?}"
                    );
                    format!("read {family}")
                }
                70..=77 => {
                    let store = cluster.resolve(&[], true).unwrap();
                    for f in FAMILIES {
                        let want = model.get(f).cloned().unwrap_or_default();
                        assert_eq!(
                            acked_by_instance(&store, f),
                            want,
                            "seed {seed} step {step}: gather-all {f}; {trail:?}"
                        );
                    }
                    "read all".to_string()
                }
                78..=87 => match down.take() {
                    Some(node) => {
                        cluster.restart_node(node);
                        format!("restart {node}")
                    }
                    None => {
                        let node = gen.below(nodes);
                        assert!(cluster.kill_node(node));
                        down = Some(node);
                        format!("kill {node}")
                    }
                },
                _ => {
                    let mut inner = cluster.inner.lock().unwrap();
                    let on = inner.link.is_none();
                    inner.link = on.then(|| Injector::derived(&chaos, "replication"));
                    format!("link chaos {}", if on { "on" } else { "off" })
                }
            };
            trail.push(op);
            assert_every_copy_verified_and_converged(&cluster, &format!("seed {seed} {trail:?}"));
        }
        // Quiescence: every node back up, every copy its primary's.
        if let Some(node) = down {
            cluster.restart_node(node);
        }
        assert!(cluster.down_nodes().is_empty());
        assert_every_copy_verified_and_converged(&cluster, &format!("seed {seed} quiescence"));
        let store = cluster.resolve(&[], true).unwrap();
        for f in FAMILIES {
            let want = model.get(f).cloned().unwrap_or_default();
            assert_eq!(acked_by_instance(&store, f), want, "seed {seed} quiescence {f}");
        }
    }

    #[test]
    fn generated_operation_sequences_match_the_acked_log() {
        for seed in 0..64 {
            run_sequence(0x5eed_0000 + seed);
        }
    }
}
