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
    /// A WAL medium failed.
    Io(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Rejected(e) => write!(f, "append rejected: {e}"),
            ClusterError::Unavailable { shard } => {
                write!(f, "shard {shard} unavailable: no live copy")
            }
            ClusterError::Io(e) => write!(f, "wal i/o: {e}"),
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
    /// nothing triggered a failover while it was down).
    pub resumed_primary: usize,
    /// Shards the node rejoined as replica.
    pub rejoined_replica: usize,
}

/// Span name for one shard touched during store resolution. Attributes:
/// `shard` and `path` (`pushdown` | `gather` | `gather_all`); hedged
/// reads add `hedge` (`win` | `loss`).
pub(crate) const SHARD_READ_SPAN: &str = "shard_read";
/// Span name for the synchronous WAL shipment inside a traced append.
pub(crate) const WAL_SHIP_SPAN: &str = "wal_ship";

/// Rolling window of served read latencies the hedge delay derives
/// from; undrained failover latencies are bounded by it too.
const READ_LATENCY_WINDOW: usize = 256;
/// Served-latency samples required before hedging arms: a cold window
/// has no p99 worth trusting.
const HEDGE_MIN_SAMPLES: usize = 16;
/// Floor on the hedge-fire delay (µs), so a uniformly fast window
/// cannot make every read hedge.
const HEDGE_FLOOR_MICROS: u64 = 500;

const HELP_FAILOVERS: &str = "Replica promotions after a primary was found dead";
const HELP_LAG: &str = "Worst primary-to-replica applied-timestamp gap across shards (s)";
const HELP_LAG_HIST: &str = "Per-shard primary-to-replica applied-timestamp gap at each lag refresh (s)";
const HELP_RESHIPS: &str = "Replication chunks re-sent after loss or CRC rejection";
const HELP_APPENDS: &str = "Acknowledged cluster appends";
const HELP_ROUTES: &str = "Query store resolutions by routing path";
const HELP_UNAVAILABLE: &str = "Operations refused because a shard had no live copy";
const HELP_HEDGE: &str =
    "Hedged shard reads by outcome: win (replica served), loss (primary served), cancelled (the losing read was abandoned first-wins)";

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
    hedge_win: Counter,
    hedge_loss: Counter,
    hedge_cancelled: Counter,
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
            hedge_win: registry.counter_with(
                "dio_cluster_hedge_total",
                HELP_HEDGE,
                &[("outcome", "win")],
            ),
            hedge_loss: registry.counter_with(
                "dio_cluster_hedge_total",
                HELP_HEDGE,
                &[("outcome", "loss")],
            ),
            hedge_cancelled: registry.counter_with(
                "dio_cluster_hedge_total",
                HELP_HEDGE,
                &[("outcome", "cancelled")],
            ),
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
    /// newest [`READ_LATENCY_WINDOW`] are kept.
    failover_latencies: VecDeque<u64>,
    /// Simulated per-read latency by node (µs). Recorded, never slept:
    /// the hedging policy reasons about these virtual latencies
    /// deterministically.
    read_latency_micros: Vec<u64>,
    /// Rolling window of served read latencies (µs); its p99 sets the
    /// hedge-fire delay.
    read_latency_window: VecDeque<u64>,
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
                read_latency_micros: vec![0; n],
                read_latency_window: VecDeque::new(),
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
    /// [`READ_LATENCY_WINDOW`] since the last drain.
    pub fn take_failover_latencies(&self) -> Vec<u64> {
        std::mem::take(&mut self.inner.lock().unwrap().failover_latencies).into()
    }

    /// Set node `node`'s simulated per-read latency (µs). The latency
    /// is *recorded, never slept* — it feeds the hedging policy and the
    /// virtual-latency accounting deterministically. The drills use
    /// this to make one shard's primary pathologically slow.
    pub fn set_read_latency(&self, node: usize, micros: u64) {
        self.inner.lock().unwrap().read_latency_micros[node] = micros;
    }

    /// Hedged-read outcomes so far: `(wins, losses, cancelled)`.
    /// `wins` counts reads the replica served first; `losses` reads
    /// where the primary still won after the hedge fired; `cancelled`
    /// every losing in-flight read abandoned first-wins.
    pub fn hedge_outcomes(&self) -> (u64, u64, u64) {
        (
            self.metrics.hedge_win.value() as u64,
            self.metrics.hedge_loss.value() as u64,
            self.metrics.hedge_cancelled.value() as u64,
        )
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
                    .map_err(|e| ClusterError::Io(e.to_string()))?
                    .map_err(ClusterError::Rejected)?;
                loaded += 1;
            }
        }
        let shard_count = inner.shards.len();
        for shard in 0..shard_count {
            self.ship(&mut inner, shard)?;
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
        let applied = copy
            .append_local(labels, sample)
            .map_err(|e| ClusterError::Io(e.to_string()))?;
        // Ship before surfacing a rejection: the rejected record is
        // WAL-logged and the replica must mirror it byte-for-byte.
        let ship_span = trace.map(|(tracer, parent)| {
            let ctx = tracer.child_of(parent);
            (tracer, ctx, tracer.clock_micros(&ctx), Instant::now())
        });
        let shipped = self.ship(&mut inner, shard);
        if let Some((tracer, ctx, start, t0)) = ship_span {
            tracer.record_span(
                &ctx,
                WAL_SHIP_SPAN,
                start,
                dio_obs::micros_u64(t0.elapsed()),
                &[
                    ("shard", &shard.to_string()),
                    (
                        "replicated",
                        match shipped {
                            Ok(true) => "true",
                            _ => "false",
                        },
                    ),
                ],
            );
        }
        let replicated = shipped?;
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
    /// current primaries over the reliable channel, and rejoin as
    /// replica wherever the shard lost one.
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
                // it was down, so it still holds the longest log) or
                // it just took the seat back as the only live copy.
                report.resumed_primary += 1;
                continue;
            }
            // Catch up the suffix it missed from the current primary,
            // then take (or retake) the replica seat.
            let primary = inner.shards[shard].primary_node;
            let (source, copy) = ship_pair(&mut inner.shards[shard].copies, primary, node);
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
    /// takeover — the flight recorder keys on that span to retain the
    /// trace that paid for the failover.
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
        push_bounded(&mut inner.failover_latencies, READ_LATENCY_WINDOW, micros);
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
    fn ship(&self, inner: &mut Inner, shard: usize) -> Result<bool, ClusterError> {
        let Some(replica) = inner.shards[shard].replica_node else {
            return Ok(false);
        };
        if !inner.up[replica] {
            return Ok(false); // degraded window: ack on primary alone
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
        Ok(true)
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
}

impl Cluster {
    /// Hedge-fire delay (µs): the p99 of the rolling served-latency
    /// window, floored at [`HEDGE_FLOOR_MICROS`]. `None` until the
    /// window holds [`HEDGE_MIN_SAMPLES`] observations — hedging stays
    /// off while cold so a handful of early reads cannot set the bar.
    fn hedge_delay(inner: &Inner) -> Option<u64> {
        let n = inner.read_latency_window.len();
        if n < HEDGE_MIN_SAMPLES {
            return None;
        }
        let mut v: Vec<u64> = inner.read_latency_window.iter().copied().collect();
        v.sort_unstable();
        Some(v[(n - 1) * 99 / 100].max(HEDGE_FLOOR_MICROS))
    }

    /// Touch `shard` under a per-shard [`SHARD_READ_SPAN`]: ensure a
    /// live primary (recording any promotion on the trace) and hand out
    /// a store. The span covers detection/promotion plus the store
    /// fetch and is tagged with the routing path.
    ///
    /// When the primary's virtual latency exceeds the rolling-p99
    /// hedge delay and a live replica exists, a hedged read fires: the
    /// replica copy starts `delay` µs behind the primary, the first
    /// CRC-clean, fully-replicated response wins, and the loser is
    /// cancelled (abandoned first-wins, its bytes never merged). All
    /// latencies are *recorded, never slept* — the virtual completion
    /// times decide the winner deterministically.
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
        let mut hedge: Option<&'static str> = None;
        let mut serving: Option<usize> = None;
        if ensured.is_ok() {
            let p = inner.shards[shard].primary_node;
            let lat_p = inner.read_latency_micros[p];
            let mut chosen = (p, lat_p);
            if let Some(delay) = Self::hedge_delay(inner) {
                if lat_p > delay {
                    let live_replica =
                        inner.shards[shard].replica_node.filter(|r| inner.up[*r]);
                    if let Some(r) = live_replica {
                        // The replica starts `delay` after the primary.
                        let lat_r = delay + inner.read_latency_micros[r];
                        // Serve the replica only when its image is
                        // caught up to the primary AND clean — verified
                        // as it arrived, so only bytes past the
                        // watermark are scanned here. It is then
                        // byte-identical by construction, and a hedge
                        // win can never diverge from the unhedged read.
                        let copies = &inner.shards[shard].copies;
                        let clean = copies[&r].records() == copies[&p].records()
                            && copies[&r].unverified_suffix_is_clean();
                        if clean && lat_r < lat_p {
                            self.metrics.hedge_win.inc();
                            hedge = Some("win");
                            chosen = (r, lat_r);
                        } else {
                            self.metrics.hedge_loss.inc();
                            hedge = Some("loss");
                        }
                        // Either way one in-flight read was abandoned.
                        self.metrics.hedge_cancelled.inc();
                    }
                }
            }
            push_bounded(&mut inner.read_latency_window, READ_LATENCY_WINDOW, chosen.1);
            serving = Some(chosen.0);
        }
        if let Some((tracer, ctx, start, t0)) = span {
            let shard_s = shard.to_string();
            let mut attrs: Vec<(&str, &str)> = vec![("shard", &shard_s), ("path", path)];
            if let Some(outcome) = hedge {
                attrs.push(("hedge", outcome));
            }
            tracer.record_span(
                &ctx,
                SHARD_READ_SPAN,
                start,
                dio_obs::micros_u64(t0.elapsed()),
                &attrs,
            );
        }
        ensured?;
        let node = serving.expect("live primary implies a serving copy was chosen");
        Ok(inner.shards[shard].copies[&node].store())
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
    fn damage_past_the_watermark_refuses_promotion_and_loses_the_hedge() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        cluster.load_from(&seed_store(&FAMILIES, 4)).unwrap();
        let f = FAMILIES[0];
        let shard = cluster.shard_for(f);
        let (primary, replica) = (
            cluster.primary_of(shard),
            cluster.replica_of(shard).unwrap(),
        );
        for _ in 0..20 {
            cluster.resolve(&[f.to_string()], false).unwrap();
        }
        // A torn frame lands on the replica's WAL behind the watermark.
        cluster.inner.lock().unwrap().shards[shard]
            .copies
            .get_mut(&replica)
            .unwrap()
            .append_unverified(&dio_faults::MAGIC);

        // Slow primary, fast replica: the hedge fires, but the replica
        // is not clean, so the primary serves.
        cluster.set_read_latency(primary, 50_000);
        cluster.resolve(&[f.to_string()], false).unwrap();
        let (wins, losses, _) = cluster.hedge_outcomes();
        assert_eq!(
            (wins, losses),
            (0, 1),
            "a damaged replica must lose the hedge"
        );

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
        for _ in 0..READ_LATENCY_WINDOW + 10 {
            let victim = cluster.primary_of(shard);
            cluster.kill_node(victim);
            cluster.resolve(&[f.to_string()], false).unwrap();
            cluster.restart_node(victim);
        }
        assert!(cluster.failovers() as usize >= READ_LATENCY_WINDOW + 10);
        assert_eq!(cluster.take_failover_latencies().len(), READ_LATENCY_WINDOW);
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

    #[test]
    fn hedged_read_serves_replica_when_primary_is_slow() {
        let source = seed_store(&FAMILIES, 4);
        let cluster = Cluster::new(ClusterConfig::new(2));
        cluster.load_from(&source).unwrap();
        let f = FAMILIES[0];
        let shard = cluster.shard_for(f);

        // Cold window: no hedging regardless of latency skew.
        cluster.set_read_latency(cluster.primary_of(shard), 50_000);
        let baseline = cluster.resolve(&[f.to_string()], false).unwrap();
        assert_eq!(cluster.hedge_outcomes(), (0, 0, 0), "cold window must not hedge");
        cluster.set_read_latency(cluster.primary_of(shard), 0);

        // Warm the window with fast reads so the p99 delay settles at
        // the floor.
        for _ in 0..20 {
            cluster.resolve(&[f.to_string()], false).unwrap();
        }

        // Slow primary: the hedge fires after the p99 delay and the
        // byte-identical replica wins the race.
        cluster.set_read_latency(cluster.primary_of(shard), 50_000);
        let tracer = Tracer::new();
        let root = tracer.begin_trace("hedged read");
        let hedged = cluster
            .resolve_traced(&[f.to_string()], false, Some((&tracer, &root)))
            .unwrap();
        tracer.finish_trace(&root, dio_obs::TraceStatus::Ok);
        let (wins, _losses, cancelled) = cluster.hedge_outcomes();
        assert!(wins >= 1, "slow primary with a fast replica must lose the race");
        assert!(cancelled >= wins, "every hedge abandons one loser first-wins");
        // Correctness gate: the replica is byte-identical, so the
        // hedged answer must match the unhedged one exactly.
        assert_eq!(hedged.sample_count(), baseline.sample_count());
        let total: usize = hedged.series_for(f).iter().map(|s| s.samples().len()).sum();
        assert_eq!(total, 4, "hedged read dropped samples");
        // The winning read is tagged on the trace.
        let rec = tracer.trace(root.trace_id).unwrap();
        let read = rec
            .spans
            .iter()
            .find(|s| s.name == SHARD_READ_SPAN)
            .expect("shard_read span present");
        assert_eq!(read.attr("hedge"), Some("win"));
        let snap = cluster.registry().snapshot();
        assert!(snap.total("dio_cluster_hedge_total") >= 2.0);
    }

    #[test]
    fn hedge_loses_when_replica_is_even_slower() {
        let source = seed_store(&FAMILIES, 4);
        let cluster = Cluster::new(ClusterConfig::new(2));
        cluster.load_from(&source).unwrap();
        let f = FAMILIES[0];
        let shard = cluster.shard_for(f);
        for _ in 0..20 {
            cluster.resolve(&[f.to_string()], false).unwrap();
        }
        // Primary slow enough to hedge, replica slower still: the
        // hedge fires but the primary keeps winning.
        cluster.set_read_latency(cluster.primary_of(shard), 10_000);
        cluster.set_read_latency(cluster.replica_of(shard).unwrap(), 60_000);
        cluster.resolve(&[f.to_string()], false).unwrap();
        let (wins, losses, cancelled) = cluster.hedge_outcomes();
        assert_eq!(wins, 0, "a slower replica must not win");
        assert!(losses >= 1, "the fired hedge must be counted as a loss");
        assert!(cancelled >= 1, "the losing replica read must be cancelled");
    }
}
