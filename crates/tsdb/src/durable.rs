//! Crash-consistent metric store: snapshot + write-ahead log.
//!
//! [`DurableStore`] wraps a [`MetricStore`] with WAL-first appends: the
//! record is framed onto the log medium *before* the in-memory store
//! changes, and the caller is only acknowledged when the full frame
//! landed. Recovery fscks the snapshot, replays the WAL, and reports
//! everything it quarantined — so a crash (or a chaos-injected torn
//! write) at any byte offset loses at most unacknowledged work.

use crate::labels::Labels;
use crate::sample::Sample;
use crate::series::AppendError;
use crate::snapshot::{fsck_snapshot, write_snapshot, FsckReport};
use crate::storage::MetricStore;
use crate::wal::{Replay, Wal, WalRecord};
use dio_faults::Medium;

/// Error from [`DurableStore::append`].
#[derive(Debug)]
pub enum DurableError {
    /// The WAL write failed; nothing was acknowledged or applied. The
    /// caller may retry (transient device faults succeed on retry).
    Wal(std::io::Error),
    /// The WAL write was acknowledged but the sample violates series
    /// ordering. Replay rejects it identically on recovery, so the
    /// durable state and the in-memory state stay convergent.
    Rejected(AppendError),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Wal(e) => write!(f, "wal append failed: {e}"),
            DurableError::Rejected(e) => write!(f, "append rejected: {e}"),
        }
    }
}

impl std::error::Error for DurableError {}

/// What [`DurableStore::recover`] found on the way back up.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryReport {
    /// Snapshot fsck outcome.
    pub snapshot: FsckReport,
    /// WAL records replayed into the store.
    pub wal_replayed: usize,
    /// WAL records rejected on replay (out-of-order duplicates of
    /// samples the snapshot already holds, or producer bugs).
    pub wal_rejected: usize,
    /// WAL frames quarantined for checksum/framing damage.
    pub wal_corrupt_frames: usize,
    /// WAL frames with unparsable payloads.
    pub wal_unparsable: usize,
    /// The WAL ended mid-frame (torn final write, unacked).
    pub wal_truncated_tail: bool,
}

impl RecoveryReport {
    /// True when neither snapshot nor WAL needed any quarantining.
    pub fn is_clean(&self) -> bool {
        self.snapshot.is_clean()
            && self.wal_rejected == 0
            && self.wal_corrupt_frames == 0
            && self.wal_unparsable == 0
            && !self.wal_truncated_tail
    }
}

/// A [`MetricStore`] with WAL-first durability over any [`Medium`].
#[derive(Debug)]
pub struct DurableStore<M> {
    store: MetricStore,
    wal: Wal<M>,
}

impl<M: Medium> DurableStore<M> {
    /// A fresh store logging onto `wal_medium`.
    pub fn new(wal_medium: M) -> Self {
        DurableStore {
            store: MetricStore::new(),
            wal: Wal::new(wal_medium),
        }
    }

    /// Rebuild from a snapshot plus whatever the WAL medium holds.
    /// Quarantines damage instead of failing; the only error is the
    /// medium refusing to be read at all (retryable under chaos).
    pub fn recover(
        snapshot_bytes: &[u8],
        wal_medium: M,
    ) -> std::io::Result<(Self, RecoveryReport)> {
        let (mut store, snap_report) = fsck_snapshot(snapshot_bytes);
        let mut report = RecoveryReport {
            snapshot: snap_report,
            ..RecoveryReport::default()
        };
        let mut replay = Replay::default();
        let (wal, wal_rec) = Wal::open_with(wal_medium, |scan, reference, sample| {
            match replay.append(&mut store, scan, reference, sample) {
                Ok(()) => report.wal_replayed += 1,
                Err(_) => report.wal_rejected += 1,
            }
        })?;
        report.wal_corrupt_frames = wal_rec.corrupt_frames;
        report.wal_unparsable = wal_rec.unparsable;
        report.wal_truncated_tail = wal_rec.truncated_tail;
        Ok((DurableStore { store, wal }, report))
    }

    /// Append WAL-first: `Ok` means the sample is durable *and*
    /// applied. See [`DurableError`] for the two failure shapes.
    pub fn append(&mut self, labels: Labels, sample: Sample) -> Result<(), DurableError> {
        let record = WalRecord {
            labels: labels.clone(),
            sample,
        };
        self.wal.append(&record).map_err(DurableError::Wal)?;
        self.store
            .append(labels, sample)
            .map_err(DurableError::Rejected)
    }

    /// Capture the current store as snapshot bytes and truncate the
    /// WAL. Returns the snapshot for the caller to place on its
    /// snapshot medium; the WAL is only truncated after the snapshot
    /// bytes are built, never before.
    pub fn checkpoint(&mut self) -> std::io::Result<Vec<u8>> {
        let bytes = write_snapshot(&self.store);
        self.wal.truncate()?;
        Ok(bytes)
    }

    /// The in-memory store.
    pub fn store(&self) -> &MetricStore {
        &self.store
    }

    /// Unwrap into the in-memory store and the WAL medium.
    pub fn into_parts(self) -> (MetricStore, M) {
        (self.store, self.wal.into_medium())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::NAME_LABEL;
    use dio_faults::{ChaosConfig, ChaosMedium, Injector, MemMedium};

    fn labels(i: usize) -> Labels {
        Labels::from_pairs([(NAME_LABEL, "auth_req"), ("instance", &format!("amf-{i}"))])
    }

    #[test]
    fn appends_survive_crash_and_recovery() {
        let mut ds = DurableStore::new(MemMedium::new());
        for k in 0..5 {
            ds.append(labels(k % 2), Sample::new(1_000 * (k as i64 + 1), k as f64))
                .unwrap();
        }
        let (store, medium) = ds.into_parts();
        // "Crash": rebuild purely from the WAL medium, no snapshot.
        let (back, report) = DurableStore::recover(&[], medium).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.wal_replayed, 5);
        assert_eq!(back.store().sample_count(), store.sample_count());
        assert_eq!(back.store().series_count(), store.series_count());
    }

    #[test]
    fn checkpoint_then_wal_tail_recovers_both_halves() {
        let mut ds = DurableStore::new(MemMedium::new());
        for k in 0..4 {
            ds.append(labels(0), Sample::new(1_000 * (k + 1), k as f64))
                .unwrap();
        }
        let snapshot = ds.checkpoint().unwrap();
        assert!(ds.wal.is_empty());
        for k in 4..6 {
            ds.append(labels(0), Sample::new(1_000 * (k + 1), k as f64))
                .unwrap();
        }
        let (_, medium) = ds.into_parts();
        let (back, report) = DurableStore::recover(&snapshot, medium).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.snapshot.samples_recovered, 4);
        assert_eq!(report.wal_replayed, 2);
        assert_eq!(back.store().sample_count(), 6);
    }

    #[test]
    fn a_recovered_store_keeps_logging_for_the_next_recovery() {
        let mut ds = DurableStore::new(MemMedium::new());
        for k in 0..3 {
            ds.append(labels(k % 2), Sample::new(1_000 * (k as i64 + 1), k as f64))
                .unwrap();
        }
        let snapshot = ds.checkpoint().unwrap();
        // The log starts over after the checkpoint: the next record of
        // a series it had logged before carries the labels again.
        ds.append(labels(0), Sample::new(10_000, 1.0)).unwrap();
        let (_, medium) = ds.into_parts(); // crash
        let (mut back, report) = DurableStore::recover(&snapshot, medium).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.wal_replayed, 1);
        assert_eq!(back.store().sample_count(), 4);
        // The recovered store logs on — to a series the log knows, to
        // one only the snapshot knows, to a new one ...
        for (i, ts) in [(0, 11_000), (1, 12_000), (7, 13_000), (7, 14_000)] {
            back.append(labels(i), Sample::new(ts, 2.0)).unwrap();
        }
        let (_, medium) = back.into_parts(); // ... and crashes again.
        let (again, report) = DurableStore::recover(&snapshot, medium).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.wal_replayed, 5);
        assert_eq!(again.store().sample_count(), 8);
        assert_eq!(again.store().series_count(), 3);
    }

    #[test]
    fn crash_at_every_wal_byte_offset_keeps_acked_prefix() {
        let mut ds = DurableStore::new(MemMedium::new());
        let mut boundaries = vec![];
        for k in 0..4 {
            ds.append(labels(0), Sample::new(1_000 * (k + 1), k as f64))
                .unwrap();
            boundaries.push(ds.wal.len());
        }
        let (_, medium) = ds.into_parts();
        let bytes = medium.into_bytes();
        for cut in 0..=bytes.len() {
            let acked = boundaries.iter().filter(|&&b| b <= cut).count();
            let (back, report) =
                DurableStore::recover(&[], MemMedium::from(bytes[..cut].to_vec())).unwrap();
            assert_eq!(back.store().sample_count(), acked, "cut at {cut}");
            assert_eq!(report.wal_replayed, acked, "cut at {cut}");
            assert_eq!(report.wal_corrupt_frames, 0, "cut at {cut}");
            assert_eq!(report.wal_rejected, 0, "cut at {cut}");
        }
    }

    #[test]
    fn transient_wal_fault_is_unacked_and_retryable() {
        let transient_only = Injector::new(ChaosConfig {
            seed: 11,
            fault_probability: 0.6,
            weights: [0, 1, 0, 0], // TransientIo only
            latency_spike_micros: 0,
        });
        let medium = ChaosMedium::new(MemMedium::new(), transient_only);
        let mut ds = DurableStore::new(medium);
        let mut acked = 0usize;
        for k in 0..20i64 {
            // Retry each sample until the device accepts it.
            let mut attempts = 0;
            loop {
                match ds.append(labels(0), Sample::new(1_000 * (k + 1), k as f64)) {
                    Ok(()) => {
                        acked += 1;
                        break;
                    }
                    Err(DurableError::Wal(_)) => {
                        attempts += 1;
                        assert!(attempts < 50, "retry budget blown");
                    }
                    Err(DurableError::Rejected(e)) => panic!("unexpected rejection: {e}"),
                }
            }
        }
        assert_eq!(acked, 20);
        let (_, medium) = ds.into_parts();
        let (inner, injector) = medium.into_parts();
        assert!(!injector.log().is_empty(), "chaos injected nothing");
        let (back, report) = DurableStore::recover(&[], inner).unwrap();
        assert!(report.is_clean());
        assert_eq!(back.store().sample_count(), 20);
    }

    #[test]
    fn replay_by_reference_lands_on_the_series_appends_by_labels_would() {
        // The snapshot numbers its series 0, 1; the log after it binds
        // series 1 first, then a new one, then series 0 — so references
        // and series ids differ, and more so once rot loses a binding.
        let mut ds = DurableStore::new(MemMedium::new());
        for k in 0..2 {
            ds.append(labels(k), Sample::new(1_000, k as f64)).unwrap();
        }
        let snapshot = ds.checkpoint().unwrap();
        let mut ends = Vec::new();
        for (i, ts) in [
            (1, 2_000),
            (5, 2_000),
            (0, 2_000),
            (1, 1_500),
            (5, 3_000),
            (1, 3_000),
        ] {
            let _ = ds.append(labels(i), Sample::new(ts, ts as f64));
            ends.push(ds.wal.len());
        }
        let (_, medium) = ds.into_parts();
        let log = medium.into_bytes();
        let contents = |store: &MetricStore| -> Vec<(Labels, Vec<Sample>)> {
            store
                .iter()
                .map(|s| (s.labels().clone(), s.samples()))
                .collect()
        };
        let mut logs = vec![log.clone()];
        for start in std::iter::once(0)
            .chain(ends.iter().copied())
            .take(ends.len())
        {
            let mut rotted = log.clone();
            rotted[start + dio_faults::FRAME_HEADER_LEN] ^= 0x01;
            logs.push(rotted);
        }
        for (i, bytes) in logs.into_iter().enumerate() {
            let (mut by_labels, _) = fsck_snapshot(&snapshot);
            let mut rejected = 0;
            for rec in crate::wal::recover(&bytes).records {
                rejected += usize::from(by_labels.append(rec.labels, rec.sample).is_err());
            }
            let (back, report) = DurableStore::recover(&snapshot, MemMedium::from(bytes)).unwrap();
            assert_eq!(contents(back.store()), contents(&by_labels), "log {i}");
            assert_eq!(report.wal_rejected, rejected, "log {i}");
        }
    }

    #[test]
    fn rejected_append_is_consistent_across_recovery() {
        let mut ds = DurableStore::new(MemMedium::new());
        ds.append(labels(0), Sample::new(2_000, 1.0)).unwrap();
        // Out-of-order: rejected in memory, logged in the WAL.
        assert!(matches!(
            ds.append(labels(0), Sample::new(1_000, 2.0)),
            Err(DurableError::Rejected(_))
        ));
        assert_eq!(ds.store().sample_count(), 1);
        let (_, medium) = ds.into_parts();
        let (back, report) = DurableStore::recover(&[], medium).unwrap();
        // Replay rejects the same record: memory and durable state agree.
        assert_eq!(report.wal_replayed, 1);
        assert_eq!(report.wal_rejected, 1);
        assert_eq!(back.store().sample_count(), 1);
    }
}
