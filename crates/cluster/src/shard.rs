//! One copy of one shard: a metric store fed through a local WAL.
//!
//! Both the primary and the replica of a shard are a [`ShardCopy`].
//! Every append is framed into the copy's WAL first (a `dio_tsdb::wal`
//! log: one frame per record, a series' labels carried by its first
//! record only), then applied to the published store, so the WAL is
//! always a byte-accurate durable transcript of the copy's state.
//! Replication is WAL shipping: the
//! primary sends the replica the framed byte range it has not applied
//! yet, the replica CRC-validates the chunk and either applies it or
//! rejects the whole shipment (never a partial apply), and the primary
//! re-ships pristine bytes on rejection. A validated chunk is adopted
//! verbatim — the received bytes themselves go onto the replica's WAL —
//! so primary and replica WALs are byte-identical up to the replica's
//! applied offset, which is what lets a restarted node catch up from
//! any copy. A copy learns the log's series numbering from the frames
//! it takes in, so whichever copy is promoted goes on numbering where
//! the old primary stopped, and a shipped suffix only makes sense to a
//! copy holding the prefix before it.
//!
//! **Verify once, at ingest.** Every WAL byte is checked exactly once,
//! on its way into the copy: framed here ([`ShardCopy::append_local`])
//! or CRC-checked and parsed before adoption
//! ([`ShardCopy::apply_shipped`], [`ShardCopy::recover_from_bytes`]).
//! Each path advances the copy's verified watermark to the end of what
//! it took in, so a promotion has only the bytes past the watermark
//! left to scan — none, under these three paths — instead of the whole
//! log. The two paths that take in framed bytes replay
//! them through one routine ([`Applied::replay`]), which resolves each
//! series reference of the log to its store series once.

use dio_faults::{DataFaultKind, PlannedFault};
use dio_tsdb::{AppendError, Labels, MetricStore, Replay, Sample, Scan, Wal, WalEntry, WalRecord};
use std::borrow::Cow;
use std::sync::Arc;

/// Why a shipped chunk was rejected by the receiving copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShipReject {
    /// A frame failed its CRC (bit flip in flight), or is not a record
    /// that follows this copy's log (it names a series the log never
    /// bound).
    CorruptFrame {
        /// How many frames failed.
        frames: usize,
    },
    /// The chunk ended mid-frame (torn tail in flight).
    TornTail,
    /// The chunk never arrived (transient link failure).
    Lost,
}

impl std::fmt::Display for ShipReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShipReject::CorruptFrame { frames } => {
                write!(f, "{frames} frame(s) failed validation")
            }
            ShipReject::TornTail => write!(f, "chunk ended mid-frame"),
            ShipReject::Lost => write!(f, "chunk lost in transit"),
        }
    }
}

/// What applying a validated shipment did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShipApply {
    /// Records appended to this copy's WAL and store.
    pub applied: usize,
    /// Records the store rejected (out of order) — still WAL-logged, so
    /// primary and replica stay byte-identical and reject identically.
    pub rejected: usize,
}

/// One copy (primary or replica) of one shard.
#[derive(Debug)]
pub struct ShardCopy {
    wal: Wal,
    /// What the WAL's records were applied to.
    applied: Applied,
    /// WAL bytes below this offset were verified on their way in.
    verified_len: usize,
}

/// What a copy's WAL records were applied to — kept apart from the WAL
/// so a scan can borrow the WAL's series table while records replay.
#[derive(Debug, Default)]
struct Applied {
    store: Arc<MetricStore>,
    /// Byte offset of the end of each framed record, in append order.
    boundaries: Vec<usize>,
    /// The log's series references → store series, each resolved once.
    series: Replay,
}

impl Applied {
    /// The replay both framed-bytes ingest paths share: a record of
    /// `scan` whose frame ends at `end` becomes a record boundary, and
    /// its sample goes to the store by series id. A sample the store
    /// rejects is still a record and a boundary.
    fn replay(
        &mut self,
        scan: &Scan<'_>,
        reference: usize,
        sample: Sample,
        end: usize,
    ) -> Result<(), AppendError> {
        self.boundaries.push(end);
        let store = Arc::make_mut(&mut self.store);
        self.series.append(store, scan, reference, sample)
    }
}

impl Default for ShardCopy {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardCopy {
    /// An empty copy.
    pub fn new() -> Self {
        ShardCopy {
            wal: Wal::default(),
            applied: Applied::default(),
            verified_len: 0,
        }
    }

    /// The published store. Cheap `Arc` clone; readers keep evaluating
    /// against the snapshot they grabbed while writers move on.
    pub fn store(&self) -> Arc<MetricStore> {
        Arc::clone(&self.applied.store)
    }

    /// Records in this copy's WAL (== records applied to the store,
    /// counting rejected appends, which are logged but not stored).
    pub fn records(&self) -> usize {
        self.applied.boundaries.len()
    }

    /// Bytes currently in this copy's WAL.
    pub fn wal_len(&self) -> usize {
        self.wal.len()
    }

    /// The verified watermark: how many WAL bytes were checked on
    /// their way into this copy.
    pub fn verified_len(&self) -> usize {
        self.verified_len
    }

    /// Whatever lies past the verified watermark scans clean — the
    /// whole integrity check a promotion still owes.
    /// The suffix is empty under every ingest path, so this costs
    /// nothing unless bytes reached the WAL some other way.
    pub fn unverified_suffix_is_clean(&self) -> bool {
        self.wal
            .scan_next(&self.wal_bytes()[self.verified_len..])
            .all(|entry| matches!(entry, WalEntry::Record { .. }))
    }

    /// Put bytes on the WAL behind the watermark's back, as no ingest
    /// path does: what the suffix check exists to catch.
    #[cfg(test)]
    pub(crate) fn append_unverified(&mut self, bytes: &[u8]) {
        self.wal.adopt_frames(bytes, dio_tsdb::Scanned::default());
    }

    /// Flip one bit of the WAL `at` bytes in: media rot. Only the bytes
    /// change — a dead node's copy is rebuilt from them on restart.
    #[cfg(test)]
    pub(crate) fn rot(&mut self, at: usize) {
        let mut bytes = self.wal_bytes().to_vec();
        bytes[at] ^= 0x10;
        self.wal = Wal::default();
        self.wal.adopt_frames(&bytes, dio_tsdb::Scanned::default());
    }

    /// Newest sample timestamp in the store, for replication lag.
    pub fn last_timestamp(&self) -> Option<i64> {
        self.applied.store.max_timestamp()
    }

    /// The raw WAL bytes — the durable transcript that survives a node
    /// crash.
    pub fn wal_bytes(&self) -> &[u8] {
        self.wal.bytes()
    }

    /// The framed bytes of records `from_record..`, for shipping to a
    /// copy whose applied count is `from_record`.
    pub fn bytes_from(&self, from_record: usize) -> &[u8] {
        let start = if from_record == 0 {
            0
        } else {
            self.applied.boundaries[from_record - 1]
        };
        &self.wal.bytes()[start..]
    }

    /// Append one record locally: WAL frame first (the durability
    /// point), then apply to the published store. An `Err(AppendError)`
    /// means the store rejected the sample as out of order; the record
    /// stays in the WAL so every copy replays — and rejects — it
    /// identically.
    pub fn append_local(&mut self, labels: Labels, sample: Sample) -> Result<(), AppendError> {
        let record = WalRecord {
            labels: labels.clone(),
            sample,
        };
        self.wal.append(&record);
        self.applied.boundaries.push(self.wal.len());
        self.verified_len = self.wal.len();
        Arc::make_mut(&mut self.applied.store).append(labels, sample)
    }

    /// Validate and apply a shipped chunk. All-or-nothing: any CRC
    /// failure, torn tail, or unparsable payload rejects the whole
    /// shipment without touching this copy, so a damaged ship can never
    /// leave the replica silently diverged — the primary just re-ships.
    /// A clean chunk is whole frames end to end, so its bytes go onto
    /// the WAL as received.
    pub fn apply_shipped(&mut self, chunk: &[u8]) -> Result<ShipApply, ShipReject> {
        let mut records = Vec::new();
        let mut damaged = 0usize;
        let mut torn = false;
        let mut scan = self.wal.scan_next(chunk);
        for entry in &mut scan {
            match entry {
                WalEntry::Record {
                    reference,
                    sample,
                    end,
                } => records.push((reference, sample, end)),
                WalEntry::Corrupt | WalEntry::Unparsable => damaged += 1,
                WalEntry::TornTail => torn = true,
            }
        }
        if damaged > 0 {
            return Err(ShipReject::CorruptFrame { frames: damaged });
        }
        if torn {
            return Err(ShipReject::TornTail);
        }
        let base = self.wal.len();
        self.applied.boundaries.reserve(records.len());
        let mut out = ShipApply::default();
        for (reference, sample, end) in records {
            match self.applied.replay(&scan, reference, sample, base + end) {
                Ok(()) => out.applied += 1,
                Err(_) => out.rejected += 1,
            }
        }
        let scanned = scan.finish();
        self.wal.adopt_frames(chunk, scanned);
        self.verified_len = self.wal.len();
        Ok(out)
    }

    /// Rebuild a copy from the durable WAL bytes a crashed node left
    /// behind, in one pass: each frame is verified, parsed and replayed
    /// into the (volatile) store as it is scanned. The pass stops at
    /// the first damage — a torn tail (kill mid-write) or a rotted
    /// frame — and adopts the clean bytes before it verbatim, so the
    /// rebuilt copy is the longest acknowledged prefix and catch-up
    /// from a surviving copy resumes at `records()`. Records behind a
    /// rotted frame are not kept: they would sit at the wrong record
    /// index and catch-up would duplicate the tail. The second value
    /// says why the prefix stops short of the end of `bytes`, if it
    /// does.
    pub fn recover_from_bytes(bytes: &[u8]) -> (Self, Option<ShipReject>) {
        let mut copy = ShardCopy::new();
        let mut stopped_by = None;
        let mut scan = copy.wal.scan_next(bytes);
        while let Some(entry) = scan.next() {
            match entry {
                WalEntry::Record {
                    reference,
                    sample,
                    end,
                } => {
                    let _ = copy.applied.replay(&scan, reference, sample, end);
                }
                WalEntry::Corrupt | WalEntry::Unparsable => {
                    stopped_by = Some(ShipReject::CorruptFrame { frames: 1 });
                    break;
                }
                WalEntry::TornTail => stopped_by = Some(ShipReject::TornTail),
            }
        }
        let scanned = scan.finish();
        let clean = copy.applied.boundaries.last().copied().unwrap_or(0);
        copy.wal.adopt_frames(&bytes[..clean], scanned);
        copy.verified_len = clean;
        (copy, stopped_by)
    }
}

/// Apply a planned link fault to a shipped chunk. Returns the bytes
/// the receiver sees — borrowed unless the fault altered them — or
/// `None` when the shipment is lost outright. Deterministic in
/// `(fault, chunk)` — the damage position comes from the fault's
/// pre-drawn `aux` entropy.
pub(crate) fn damage_chunk(fault: PlannedFault, chunk: &[u8]) -> Option<Cow<'_, [u8]>> {
    match fault.kind {
        // A slow link still delivers intact bytes.
        DataFaultKind::LatencySpike => Some(Cow::Borrowed(chunk)),
        DataFaultKind::TransientIo => None,
        DataFaultKind::TruncatedRead => {
            if chunk.is_empty() {
                return Some(Cow::Borrowed(chunk));
            }
            let cut = (fault.aux % chunk.len() as u64) as usize;
            Some(Cow::Borrowed(&chunk[..cut]))
        }
        DataFaultKind::BitFlip => {
            if chunk.is_empty() {
                return Some(Cow::Borrowed(chunk));
            }
            let mut out = chunk.to_vec();
            let bit = fault.aux % (chunk.len() as u64 * 8);
            out[(bit / 8) as usize] ^= 1 << (bit % 8);
            Some(Cow::Owned(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_tsdb::{FRAME_HEADER_LEN, NAME_LABEL};

    fn rec(name: &str, i: usize) -> (Labels, Sample) {
        (
            Labels::from_pairs([(NAME_LABEL, name), ("instance", "smf-0")]),
            Sample::new(1_000 * (i as i64 + 1), i as f64),
        )
    }

    fn filled(n: usize) -> ShardCopy {
        let mut c = ShardCopy::new();
        for i in 0..n {
            let (l, s) = rec("auth_req", i);
            c.append_local(l, s).unwrap();
        }
        c
    }

    #[test]
    fn ship_full_log_reproduces_store_and_wal_bytes() {
        let primary = filled(5);
        let mut replica = ShardCopy::new();
        let apply = replica.apply_shipped(primary.bytes_from(0)).unwrap();
        assert_eq!(apply, ShipApply { applied: 5, rejected: 0 });
        assert_eq!(replica.records(), 5);
        assert_eq!(replica.wal_bytes(), primary.wal_bytes());
        assert_eq!(replica.store().sample_count(), primary.store().sample_count());
    }

    #[test]
    fn incremental_catch_up_ships_only_the_gap() {
        let mut primary = filled(3);
        let mut replica = ShardCopy::new();
        replica.apply_shipped(primary.bytes_from(0)).unwrap();
        for i in 3..6 {
            let (l, s) = rec("auth_req", i);
            primary.append_local(l, s).unwrap();
        }
        let gap = primary.bytes_from(replica.records());
        assert!(gap.len() < primary.wal_len());
        replica.apply_shipped(gap).unwrap();
        assert_eq!(replica.wal_bytes(), primary.wal_bytes());
    }

    #[test]
    fn a_suffix_applies_only_behind_the_prefix_that_names_its_series() {
        let primary = filled(5);
        // Records 1.. name their series by a reference record 0 bound.
        let suffix = primary.bytes_from(3);
        let mut replica = ShardCopy::new();
        replica.apply_shipped(&primary.wal_bytes()[..primary.applied.boundaries[2]]).unwrap();
        assert_eq!(replica.apply_shipped(suffix), Ok(ShipApply { applied: 2, rejected: 0 }));
        assert_eq!(replica.wal_bytes(), primary.wal_bytes());
        assert_eq!(replica.store().sample_count(), 5);
        // Offered to a copy without that prefix, the same bytes name
        // nothing: rejected whole, nothing learned from them.
        let mut empty = ShardCopy::new();
        assert_eq!(
            empty.apply_shipped(suffix),
            Err(ShipReject::CorruptFrame { frames: 2 })
        );
        assert_eq!((empty.records(), empty.wal_len()), (0, 0));
        assert_eq!(empty.store().series_count(), 0);
        empty.apply_shipped(primary.bytes_from(0)).unwrap();
        assert_eq!(empty.wal_bytes(), primary.wal_bytes());
    }

    #[test]
    fn a_rejected_shipment_binds_no_series() {
        // The chunk opens with a new series' first record and is torn
        // after it: had the rejected scan's binding stuck, the pristine
        // re-ship would find the reference taken.
        let mut primary = filled(2);
        let mut replica = ShardCopy::new();
        replica.apply_shipped(primary.bytes_from(0)).unwrap();
        for i in 2..4 {
            let (l, s) = rec("pdu_est", i);
            primary.append_local(l, s).unwrap();
        }
        let chunk = primary.bytes_from(2);
        assert_eq!(
            replica.apply_shipped(&chunk[..chunk.len() - 1]),
            Err(ShipReject::TornTail)
        );
        replica.apply_shipped(chunk).unwrap();
        assert_eq!(replica.wal_bytes(), primary.wal_bytes());
        assert_eq!(replica.store().series_count(), 2);
    }

    #[test]
    fn a_promoted_or_rebuilt_copy_numbers_series_as_the_primary_would_have() {
        let mut primary = filled(3);
        let mut replica = ShardCopy::new();
        replica.apply_shipped(primary.bytes_from(0)).unwrap();
        let (mut rebuilt, _) = ShardCopy::recover_from_bytes(primary.wal_bytes());
        // The same appends — a known series, then a new one — yield the
        // same bytes on the copy that wrote the log, the copy that was
        // shipped it and the copy rebuilt from it.
        for copy in [&mut primary, &mut replica, &mut rebuilt] {
            for (name, i) in [("auth_req", 3), ("pdu_est", 4), ("pdu_est", 5)] {
                let (l, s) = rec(name, i);
                copy.append_local(l, s).unwrap();
            }
        }
        assert_eq!(replica.wal_bytes(), primary.wal_bytes());
        assert_eq!(rebuilt.wal_bytes(), primary.wal_bytes());
        let (reread, stopped_by) = ShardCopy::recover_from_bytes(replica.wal_bytes());
        assert_eq!(stopped_by, None);
        assert_eq!(reread.store().sample_count(), 6);
        assert_eq!(reread.store().series_count(), 2);
    }

    #[test]
    fn bit_flip_in_flight_is_rejected_without_partial_apply() {
        let primary = filled(4);
        let mut replica = ShardCopy::new();
        let mut damaged = primary.bytes_from(0).to_vec();
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x10;
        let err = replica.apply_shipped(&damaged).unwrap_err();
        assert!(matches!(err, ShipReject::CorruptFrame { .. }));
        assert_eq!(replica.records(), 0, "rejected shipment must not partially apply");
        // Pristine re-ship then succeeds and converges byte-for-byte.
        replica.apply_shipped(primary.bytes_from(0)).unwrap();
        assert_eq!(replica.wal_bytes(), primary.wal_bytes());
    }

    #[test]
    fn torn_tail_in_flight_is_rejected() {
        let primary = filled(2);
        let chunk = primary.bytes_from(0);
        let mut replica = ShardCopy::new();
        let err = replica.apply_shipped(&chunk[..chunk.len() - 3]).unwrap_err();
        assert_eq!(err, ShipReject::TornTail);
        assert_eq!(replica.records(), 0);
    }

    #[test]
    fn recover_from_torn_local_wal_keeps_acked_prefix() {
        let primary = filled(4);
        let bytes = primary.wal_bytes();
        // Kill mid-write of the 4th record: cut inside the last frame.
        let cut = primary.applied.boundaries[2] + 4;
        let (copy, stopped_by) = ShardCopy::recover_from_bytes(&bytes[..cut]);
        assert_eq!(copy.records(), 3);
        assert_eq!(stopped_by, Some(ShipReject::TornTail));
        assert_eq!(copy.store().sample_count(), 3);
        // Catch-up from the survivor resumes exactly at the gap.
        let mut copy = copy;
        copy.apply_shipped(primary.bytes_from(copy.records())).unwrap();
        assert_eq!(copy.wal_bytes(), primary.wal_bytes());
    }

    #[test]
    fn every_ingest_path_verifies_up_to_the_end_of_the_wal() {
        let primary = filled(4);
        assert_eq!(primary.verified_len(), primary.wal_len());
        let mut replica = ShardCopy::new();
        replica.apply_shipped(primary.bytes_from(0)).unwrap();
        assert_eq!(replica.verified_len(), replica.wal_len());
        // A rejected shipment moves neither the WAL nor the watermark.
        let chunk = primary.bytes_from(2);
        assert!(replica.apply_shipped(&chunk[..chunk.len() - 1]).is_err());
        assert_eq!(replica.verified_len(), primary.wal_len());
        assert_eq!(replica.wal_len(), primary.wal_len());
        // A rebuild verifies exactly the prefix it adopts.
        let torn = &primary.wal_bytes()[..primary.wal_len() - 1];
        let (rebuilt, _) = ShardCopy::recover_from_bytes(torn);
        assert_eq!(rebuilt.wal_len(), primary.applied.boundaries[2]);
        assert_eq!(rebuilt.verified_len(), rebuilt.wal_len());
        assert!(rebuilt.unverified_suffix_is_clean());
    }

    #[test]
    fn only_the_suffix_past_the_watermark_is_scanned() {
        let mut copy = filled(3);
        let (l, s) = rec("auth_req", 3);
        let frame = filled(4).bytes_from(3).to_vec();
        // Intact frames past the watermark scan clean ...
        copy.append_unverified(&frame);
        assert!(copy.verified_len() < copy.wal_len());
        assert!(copy.unverified_suffix_is_clean());
        // ... a torn or rotted one does not ...
        let mut torn = filled(3);
        torn.append_unverified(&frame[..frame.len() - 2]);
        assert!(!torn.unverified_suffix_is_clean());
        let mut rotted = filled(3);
        let mut bad = frame.clone();
        bad[frame.len() / 2] ^= 0x04;
        rotted.append_unverified(&bad);
        assert!(!rotted.unverified_suffix_is_clean());
        // ... and nothing below the watermark is looked at again.
        let mut below = filled(3);
        let zeros = vec![0u8; below.wal_len()];
        below.wal = Wal::default();
        below.wal.adopt_frames(&zeros, dio_tsdb::Scanned::default());
        assert!(below.unverified_suffix_is_clean());
        below.append_local(l, s).unwrap();
        assert_eq!(below.verified_len(), below.wal_len());
    }

    /// `recover_from_bytes` as it replayed before [`Replay`]: the clean
    /// prefix's records, each appended to the store by its labels.
    fn recover_by_labels(bytes: &[u8]) -> ShardCopy {
        let mut copy = ShardCopy::new();
        let mut ends = Vec::new();
        let mut scan = copy.wal.scan_next(bytes);
        for entry in &mut scan {
            match entry {
                WalEntry::Record { end, .. } => ends.push(end),
                WalEntry::Corrupt | WalEntry::Unparsable => break,
                WalEntry::TornTail => {}
            }
        }
        let scanned = scan.finish();
        let clean = ends.last().copied().unwrap_or(0);
        let store = Arc::make_mut(&mut copy.applied.store);
        for record in dio_tsdb::recover(&bytes[..clean]).records {
            let _ = store.append(record.labels, record.sample);
        }
        copy.wal.adopt_frames(&bytes[..clean], scanned);
        copy.applied.boundaries = ends;
        copy.verified_len = clean;
        copy
    }

    type Image = (Vec<(Labels, Vec<(i64, u64)>)>, Vec<u8>, Vec<usize>, usize);

    /// Everything a copy is: its series in id order with their samples'
    /// bits, its WAL bytes, record boundaries and watermark.
    fn image(copy: &ShardCopy) -> Image {
        let store = copy.store();
        let series = store
            .iter()
            .map(|s| {
                let bits = s.samples().iter().map(|x| (x.timestamp_ms, x.value.to_bits())).collect();
                (s.labels().clone(), bits)
            })
            .collect();
        (
            series,
            copy.wal_bytes().to_vec(),
            copy.applied.boundaries.clone(),
            copy.verified_len(),
        )
    }

    /// A log of three interleaved series, two of whose records the store
    /// rejects as out of order — whole, torn mid-frame, with a frame in
    /// the middle rotted, and with its first frame rotted.
    fn parity_logs() -> Vec<(&'static str, Vec<u8>, Option<ShipReject>)> {
        let mut primary = ShardCopy::new();
        let plan = [
            ("auth_req", "amf-0", 1_000),
            ("pdu_est", "smf-0", 1_000),
            ("auth_req", "amf-1", 1_500),
            ("auth_req", "amf-0", 2_000),
            ("pdu_est", "smf-0", 500),
            ("auth_req", "amf-1", 2_500),
            ("auth_req", "amf-0", 2_000),
            ("pdu_est", "smf-0", 3_000),
            ("auth_req", "amf-0", 4_000),
        ];
        for (i, (name, instance, ts)) in plan.into_iter().enumerate() {
            let labels = Labels::from_pairs([(NAME_LABEL, name), ("instance", instance)]);
            let stored = primary.append_local(labels, Sample::new(ts, i as f64));
            assert_eq!(stored.is_err(), [4, 6].contains(&i), "record {i}");
        }
        let bytes = primary.wal_bytes().to_vec();
        let ends = primary.applied.boundaries.clone();
        let rot = |at: usize| {
            let mut rotted = bytes.clone();
            rotted[at] ^= 0x10;
            rotted
        };
        let torn = bytes[..ends[ends.len() - 2] + 5].to_vec();
        let mid = ends[ends.len() / 2 - 1] + FRAME_HEADER_LEN + 1;
        let corrupt = Some(ShipReject::CorruptFrame { frames: 1 });
        vec![
            ("whole", bytes.clone(), None),
            ("torn", torn, Some(ShipReject::TornTail)),
            ("rotted mid-log", rot(mid), corrupt.clone()),
            ("rotted first frame", rot(FRAME_HEADER_LEN), corrupt),
        ]
    }

    #[test]
    fn replay_by_reference_rebuilds_what_appends_by_labels_did() {
        for (what, log, stop) in parity_logs() {
            let (mut rebuilt, stopped_by) = ShardCopy::recover_from_bytes(&log);
            assert_eq!(stopped_by, stop, "{what}");
            let mut reference = recover_by_labels(&log);
            assert_eq!(image(&rebuilt), image(&reference), "{what}");
            // The clean prefix shipped in two pieces replays alike too.
            let mut shipped = ShardCopy::new();
            let ends = &reference.applied.boundaries;
            let clean = ends.last().copied().unwrap_or(0);
            let split = ends.get(ends.len() / 2).copied().unwrap_or(0);
            for piece in [&log[..split], &log[split..clean]] {
                shipped.apply_shipped(piece).unwrap();
            }
            assert_eq!(image(&shipped), image(&reference), "{what} shipped");
            // The next appends — a known series, then a new one — write
            // the same bytes on all three.
            for copy in [&mut rebuilt, &mut reference, &mut shipped] {
                for name in ["auth_req", "ho_fail"] {
                    let labels = Labels::from_pairs([(NAME_LABEL, name), ("instance", "amf-0")]);
                    copy.append_local(labels, Sample::new(9_000, 9.0)).unwrap();
                }
            }
            assert_eq!(image(&rebuilt), image(&reference), "{what}, appended");
            assert_eq!(image(&shipped), image(&reference), "{what} shipped, appended");
        }
    }

    #[test]
    fn damage_chunk_is_deterministic_and_detectable() {
        let primary = filled(3);
        let chunk = primary.bytes_from(0);
        for kind in [DataFaultKind::TruncatedRead, DataFaultKind::BitFlip] {
            let fault = PlannedFault { kind, aux: 7777 };
            let a = damage_chunk(fault, chunk).unwrap();
            let b = damage_chunk(fault, chunk).unwrap();
            assert_eq!(a, b);
            assert_ne!(a, chunk, "{kind:?} left the chunk intact");
            let mut replica = ShardCopy::new();
            assert!(replica.apply_shipped(&a).is_err(), "{kind:?} damage went undetected");
        }
        assert!(damage_chunk(
            PlannedFault { kind: DataFaultKind::TransientIo, aux: 0 },
            chunk
        )
        .is_none());
        assert_eq!(
            damage_chunk(PlannedFault { kind: DataFaultKind::LatencySpike, aux: 0 }, chunk)
                .as_deref(),
            Some(chunk)
        );
    }
}
