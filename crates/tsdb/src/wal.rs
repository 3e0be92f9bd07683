//! Write-ahead log for the metric store.
//!
//! Each appended sample is one checksummed frame (see
//! `dio_faults::framing`) holding a JSON [`WalRecord`]. The durability
//! contract is ack-on-`Ok`: a caller that saw `Ok` from
//! [`Wal::append`] holds a fully framed record on the medium, so
//! recovery after a crash at *any* byte offset either replays it or —
//! when the crash landed mid-frame — cleanly truncates an unacked tail.
//! It never invents or silently drops an acknowledged write.

use crate::labels::Labels;
use crate::sample::Sample;
use dio_faults::{encode_record, frames, Frame, Medium};
use serde::{Deserialize, Serialize};

/// One logged append: the series identity and the sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Full label set of the series appended to.
    pub labels: Labels,
    /// The appended sample.
    pub sample: Sample,
}

/// What a WAL recovery scan found.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WalRecovery {
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// Frames quarantined for checksum/framing damage.
    pub corrupt_frames: usize,
    /// Frames that passed their checksum but did not parse as a
    /// [`WalRecord`] (format drift; quarantined, never fatal).
    pub unparsable: usize,
    /// The log ended mid-frame — a torn final write of an unacked
    /// record. Clean truncation, nothing acknowledged was lost.
    pub truncated_tail: bool,
}

impl WalRecovery {
    /// True when every byte of the log decoded cleanly.
    pub fn is_clean(&self) -> bool {
        self.corrupt_frames == 0 && self.unparsable == 0 && !self.truncated_tail
    }
}

/// A write-ahead log over any [`Medium`].
#[derive(Debug)]
pub struct Wal<M> {
    medium: M,
    appended: usize,
}

impl<M: Medium> Wal<M> {
    /// Start logging onto `medium` (appending after existing content).
    pub fn new(medium: M) -> Self {
        Wal {
            medium,
            appended: 0,
        }
    }

    /// Append one record. `Ok` means the full frame reached the medium:
    /// the write is acknowledged and recovery will replay it. On `Err`
    /// nothing is acknowledged (the medium may hold a torn fragment,
    /// which recovery quarantines).
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        let payload = serde_json::to_string(record).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
        })?;
        self.medium.append(&encode_record(payload.as_bytes()))?;
        self.appended += 1;
        Ok(())
    }

    /// Append `records` already-framed records in one medium write.
    /// `framed` must be whole frames the caller has verified (every
    /// checksum checked, every payload parsed — [`entries`] yielding
    /// nothing but records): the bytes are adopted as they are, not
    /// re-encoded, so this log stays byte-identical to the one they
    /// came from.
    pub fn adopt_frames(&mut self, framed: &[u8], records: usize) -> std::io::Result<()> {
        self.medium.append(framed)?;
        self.appended += records;
        Ok(())
    }

    /// Records acknowledged through this handle.
    pub fn appended(&self) -> usize {
        self.appended
    }

    /// Discard the log (after a checkpoint has captured its contents).
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.medium.truncate()
    }

    /// Bytes currently on the medium.
    pub fn len(&self) -> usize {
        self.medium.len()
    }

    /// True when the medium holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.medium.is_empty()
    }

    /// The underlying medium.
    pub fn medium(&self) -> &M {
        &self.medium
    }

    /// Unwrap into the underlying medium.
    pub fn into_medium(self) -> M {
        self.medium
    }
}

/// One step of a WAL scan.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    /// An intact record.
    Record {
        /// The parsed record.
        record: WalRecord,
        /// Offset just past its frame (see [`Frame::Record`]).
        end: usize,
    },
    /// A frame quarantined for checksum/framing damage.
    Corrupt,
    /// A frame that passed its checksum but did not parse as a
    /// [`WalRecord`].
    Unparsable,
    /// The log ended mid-frame. Always the last item.
    TornTail,
}

/// Scan raw WAL bytes one frame at a time, parsing each record straight
/// from the scanned bytes. Never panics.
pub fn entries(bytes: &[u8]) -> impl Iterator<Item = WalEntry> + '_ {
    frames(bytes).map(|frame| match frame {
        Frame::Record { payload, end } => std::str::from_utf8(payload)
            .ok()
            .and_then(|s| serde_json::from_str::<WalRecord>(s).ok())
            .map_or(WalEntry::Unparsable, |record| WalEntry::Record {
                record,
                end,
            }),
        Frame::Corrupt => WalEntry::Corrupt,
        Frame::TornTail => WalEntry::TornTail,
    })
}

/// Scan raw WAL bytes into records, quarantining damage. Never panics.
pub fn recover(bytes: &[u8]) -> WalRecovery {
    let mut out = WalRecovery::default();
    for entry in entries(bytes) {
        match entry {
            WalEntry::Record { record, .. } => out.records.push(record),
            WalEntry::Corrupt => out.corrupt_frames += 1,
            WalEntry::Unparsable => out.unparsable += 1,
            WalEntry::TornTail => out.truncated_tail = true,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::NAME_LABEL;
    use dio_faults::{ChaosConfig, ChaosMedium, Injector, MemMedium, FRAME_HEADER_LEN};

    fn record(i: usize) -> WalRecord {
        WalRecord {
            labels: Labels::from_pairs([
                (NAME_LABEL, "auth_req"),
                ("instance", &format!("amf-{}", i % 3)),
            ]),
            sample: Sample::new(1_000 * (i as i64 + 1), i as f64 * 0.5),
        }
    }

    #[test]
    fn roundtrips_records() {
        let mut wal = Wal::new(MemMedium::new());
        let recs: Vec<WalRecord> = (0..5).map(record).collect();
        for r in &recs {
            wal.append(r).unwrap();
        }
        assert_eq!(wal.appended(), 5);
        let rec = recover(wal.medium().bytes());
        assert!(rec.is_clean());
        assert_eq!(rec.records, recs);
    }

    #[test]
    fn adopted_frames_equal_appended_ones() {
        let mut source = Wal::new(MemMedium::new());
        for i in 0..4 {
            source.append(&record(i)).unwrap();
        }
        let mut ends = Vec::new();
        for entry in entries(source.medium().bytes()) {
            match entry {
                WalEntry::Record { end, .. } => ends.push(end),
                other => panic!("clean log scanned as {other:?}"),
            }
        }
        assert_eq!(ends.last(), Some(&source.len()));
        // Adopt the log in two shipments split at a frame boundary.
        let mut wal = Wal::new(MemMedium::new());
        let (head, tail) = source.medium().bytes().split_at(ends[1]);
        wal.adopt_frames(head, 2).unwrap();
        wal.adopt_frames(tail, 2).unwrap();
        assert_eq!(wal.appended(), 4);
        assert_eq!(wal.medium().bytes(), source.medium().bytes());
        // ... and keep appending behind them.
        wal.append(&record(4)).unwrap();
        assert_eq!(
            recover(wal.medium().bytes()).records,
            (0..5).map(record).collect::<Vec<_>>()
        );
    }

    #[test]
    fn crash_at_every_byte_offset_never_loses_an_acked_write() {
        // The acceptance-criterion test: kill the writer at every byte
        // offset of the log, recover, and check that exactly the
        // prefix-closed set of fully framed (i.e. acknowledged) records
        // comes back — no corruption surfaced, no invented records.
        let mut wal = Wal::new(MemMedium::new());
        let recs: Vec<WalRecord> = (0..4).map(record).collect();
        let mut boundaries = vec![];
        for r in &recs {
            wal.append(r).unwrap();
            boundaries.push(wal.len());
        }
        let bytes = wal.into_medium().into_bytes();
        for cut in 0..=bytes.len() {
            let rec = recover(&bytes[..cut]);
            let acked = boundaries.iter().filter(|&&b| b <= cut).count();
            assert_eq!(rec.records.len(), acked, "cut at {cut}");
            assert_eq!(rec.records, recs[..acked], "cut at {cut}");
            assert_eq!(rec.corrupt_frames, 0, "cut at {cut} surfaced corruption");
            assert_eq!(rec.unparsable, 0, "cut at {cut}");
            let at_boundary = cut == 0 || boundaries.contains(&cut);
            assert_eq!(rec.truncated_tail, !at_boundary, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flip_quarantines_one_record_keeps_the_rest() {
        let mut wal = Wal::new(MemMedium::new());
        let recs: Vec<WalRecord> = (0..3).map(record).collect();
        for r in &recs {
            wal.append(r).unwrap();
        }
        let mut bytes = wal.into_medium().into_bytes();
        // Flip a payload bit inside the second frame.
        let first_len = {
            let scan = dio_faults::decode_all(&bytes);
            FRAME_HEADER_LEN + scan.records[0].len()
        };
        bytes[first_len + FRAME_HEADER_LEN + 2] ^= 0x08;
        let rec = recover(&bytes);
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.records[0], recs[0]);
        assert_eq!(rec.records[1], recs[2]);
        assert_eq!(rec.corrupt_frames, 1);
    }

    #[test]
    fn torn_write_then_retry_recovers_the_retried_record() {
        // A chaotic medium tears one append (no ack); the caller
        // retries. Recovery must quarantine the fragment and keep both
        // acknowledged records.
        let torn_only = Injector::new(ChaosConfig {
            seed: 3,
            fault_probability: 1.0,
            weights: [0, 0, 1, 0], // TruncatedRead ⇒ torn writes
            latency_spike_micros: 0,
        });
        let mut medium = ChaosMedium::new(MemMedium::new(), torn_only);
        let mut wal = Wal::new(MemMedium::new());
        wal.append(&record(0)).unwrap();
        medium.append(wal.medium().bytes()).unwrap_err(); // torn, unacked
        // Disable chaos for the retry + second record.
        let (inner, _) = medium.into_parts();
        let mut wal2 = Wal::new(inner);
        wal2.append(&record(0)).unwrap();
        wal2.append(&record(1)).unwrap();
        let rec = recover(wal2.medium().bytes());
        assert_eq!(rec.records, vec![record(0), record(1)]);
        assert!(rec.corrupt_frames <= 1);
        assert!(!rec.truncated_tail);
    }

    #[test]
    fn valid_frame_with_foreign_payload_is_unparsable_not_fatal() {
        let mut m = MemMedium::new();
        m.append(&dio_faults::encode_record(b"{\"not\":\"a wal record\"}"))
            .unwrap();
        let mut wal = Wal::new(m);
        wal.append(&record(1)).unwrap();
        let rec = recover(wal.medium().bytes());
        assert_eq!(rec.unparsable, 1);
        assert_eq!(rec.records, vec![record(1)]);
    }
}
