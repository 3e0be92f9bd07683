//! Write-ahead log for the metric store.
//!
//! Each appended sample is one checksummed frame (see `framing`)
//! holding one binary record:
//!
//! ```text
//! u8      tag: 1 = first record of its series in this log, 2 = any later one
//! varint  series reference (LEB128, shortest form)
//! tag 1 only — the label set the reference stands for from here on:
//!   varint  label count
//!   per label: varint length + UTF-8 name, varint length + UTF-8 value,
//!   names strictly increasing
//! i64     timestamp_ms (little endian)
//! u64     value bits (f64::to_bits, little endian)
//! ```
//!
//! A series' labels are written once, by its first record; every later
//! sample names the series by reference. This module is the only place
//! that knows the layout. The [`Wal`] handle owns the table of bound
//! references for its log, and a [`Scan`] rebuilds the same table from
//! the bytes as it reads them; a [`Replay`] maps those references to
//! store series, so replaying a log resolves each series once. The scan
//! never guesses: a record whose reference no earlier record bound, a
//! payload in any other format, label names out of order, a count the
//! payload has no bytes for, or a reference the log is too short to
//! have reached are all [`WalEntry::Unparsable`].
//!
//! The durability contract is ack-on-return: once [`Wal::append`]
//! returns, the log holds the record's whole frame, so recovery from
//! the log cut at *any* byte offset either replays it or — when the cut
//! landed mid-frame — cleanly truncates an unacked tail. It never
//! invents or silently drops an acknowledged write.

use crate::cursor::Cursor;
use crate::framing::{encode_record, Frame, Frames, FRAME_HEADER_LEN};
use crate::labels::{LabelMap, Labels};
use crate::sample::Sample;
use crate::series::AppendError;
use crate::storage::MetricStore;

/// Tag of a series' first record in a log: it carries the label set
/// and binds its reference to it.
const TAG_SERIES: u8 = 1;
/// Tag of a record whose reference an earlier record bound.
const TAG_SAMPLE: u8 = 2;
/// Smallest frame that binds a reference: frame header, tag, reference,
/// label count, timestamp, value.
const MIN_BINDING_FRAME: usize = FRAME_HEADER_LEN + 3 + 16;

/// One logged append: the series identity and the sample.
#[derive(Debug, Clone, PartialEq)]
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
    /// Frames that passed their checksum but are not a [`WalRecord`]
    /// this log can vouch for: another format, or a sample of a series
    /// whose first record was lost (quarantined, never fatal).
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

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A varint in its shortest form; anything longer, or wider than 64
/// bits, is not something [`put_varint`] wrote.
fn varint(c: &mut Cursor<'_>) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = c.u8()?;
        let group = u64::from(byte & 0x7F);
        if group << shift >> shift != group {
            return None;
        }
        v |= group << shift;
        if byte & 0x80 == 0 {
            return (byte != 0 || shift == 0).then_some(v);
        }
    }
    None
}

fn put_text(out: &mut Vec<u8>, text: &str) {
    put_varint(out, text.len() as u64);
    out.extend_from_slice(text.as_bytes());
}

fn text<'a>(c: &mut Cursor<'a>) -> Option<&'a str> {
    let len = usize::try_from(varint(c)?).ok()?;
    std::str::from_utf8(c.take(len)?).ok()
}

/// One record's payload. `binds` is the label set when this is the
/// first record of its series in the log.
fn encode(reference: u64, binds: Option<&Labels>, sample: Sample) -> Vec<u8> {
    let mut p = Vec::with_capacity(32);
    match binds {
        Some(labels) => {
            p.push(TAG_SERIES);
            put_varint(&mut p, reference);
            put_varint(&mut p, labels.len() as u64);
            for (name, value) in labels.iter() {
                put_text(&mut p, name);
                put_text(&mut p, value);
            }
        }
        None => {
            p.push(TAG_SAMPLE);
            put_varint(&mut p, reference);
        }
    }
    p.extend_from_slice(&sample.timestamp_ms.to_le_bytes());
    p.extend_from_slice(&sample.value.to_bits().to_le_bytes());
    p
}

/// [`encode`] backwards: the reference, the labels it binds if any, the
/// sample. `None` for anything [`encode`] would not have written.
fn decode(payload: &[u8]) -> Option<(u64, Option<Labels>, Sample)> {
    let mut c = Cursor::new(payload);
    let tag = c.u8()?;
    let reference = varint(&mut c)?;
    let binds = match tag {
        TAG_SERIES => {
            let count = usize::try_from(varint(&mut c)?).ok()?;
            // Every pair takes at least its two length bytes.
            if count > c.remaining() / 2 {
                return None;
            }
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                pairs.push((text(&mut c)?, text(&mut c)?));
            }
            Some(Labels::from_sorted_pairs(&pairs)?)
        }
        TAG_SAMPLE => None,
        _ => return None,
    };
    let timestamp_ms = c.u64()? as i64;
    let value = f64::from_bits(c.u64()?);
    c.done()
        .then_some((reference, binds, Sample::new(timestamp_ms, value)))
}

/// The references a log has bound, by reference and — for the writer —
/// by label set. A `None` slot is a reference whose binding record a
/// recovery scan lost to damage: its samples stay unparsable.
#[derive(Debug, Default)]
struct SeriesTable {
    by_ref: Vec<Option<Labels>>,
    refs: LabelMap<u64>,
}

impl SeriesTable {
    /// Bind the references after the last known one, in order.
    fn extend(&mut self, bound: impl IntoIterator<Item = Option<Labels>>) {
        for labels in bound {
            if let Some(labels) = &labels {
                self.refs.insert(labels.clone(), self.by_ref.len() as u64);
            }
            self.by_ref.push(labels);
        }
    }
}

/// A write-ahead log: the framed bytes and the series references
/// they bound.
#[derive(Debug, Default)]
pub struct Wal {
    bytes: Vec<u8>,
    /// References bound by the records in `bytes`.
    series: SeriesTable,
}

impl Wal {
    /// Append one record. Once this returns the record's whole frame
    /// is in the log, and recovery will replay it.
    pub fn append(&mut self, record: &WalRecord) {
        let known = self.series.refs.get(&record.labels).copied();
        let reference = known.unwrap_or(self.series.by_ref.len() as u64);
        let binds = known.is_none().then_some(&record.labels);
        let payload = encode(reference, binds, record.sample);
        self.bytes.extend_from_slice(&encode_record(&payload));
        if let Some(labels) = binds {
            self.series.extend([Some(labels.clone())]);
        }
    }

    /// Scan `bytes` as the frames that follow this log: references the
    /// log has bound resolve, and new ones number on from them.
    pub fn scan_next<'a>(&'a self, bytes: &'a [u8]) -> Scan<'a> {
        Scan::new(bytes, &self.series.by_ref)
    }

    /// Append already-framed records. `framed` must be the whole frames
    /// a [`Wal::scan_next`] of this log passed as nothing but records,
    /// and `scanned` what that scan learned: the bytes are adopted as
    /// they are, not re-encoded, so this log stays byte-identical to
    /// the one they came from, and the references they bound become
    /// this log's.
    pub fn adopt_frames(&mut self, framed: &[u8], scanned: Scanned) {
        self.bytes.extend_from_slice(framed);
        self.series.extend(scanned.bound);
    }

    /// The log's bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Bytes in the log.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the log holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// One step of a WAL scan.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    /// An intact record. Its labels stay in the scan's table: a
    /// [`Replay`] looks them up once per series, not once per sample.
    Record {
        /// The series reference the record names.
        reference: usize,
        /// The appended sample.
        sample: Sample,
        /// Offset just past its frame (see [`Frame::Record`]).
        end: usize,
    },
    /// A frame quarantined for checksum/framing damage.
    Corrupt,
    /// A frame that passed its checksum but is not a record this log
    /// can vouch for (see the module docs).
    Unparsable,
    /// The log ended mid-frame. Always the last item.
    TornTail,
}

/// A scan of raw WAL bytes, one frame at a time, parsing each record
/// straight from the scanned bytes and resolving its reference against
/// the records before it. Each series' labels are decoded once, by its
/// binding record, into the one [`Labels`] allocation every record of
/// the series resolves to. Never panics on any bytes.
#[derive(Debug)]
pub struct Scan<'a> {
    frames: Frames<'a>,
    /// References bound before the scanned bytes.
    known: &'a [Option<Labels>],
    /// What the scanned bytes added, from reference `known.len()` up.
    scanned: Scanned,
}

/// What a [`Scan`] learned from the frames it passed; [`Wal::adopt_frames`]
/// takes it together with those frames.
#[derive(Debug, Default)]
pub struct Scanned {
    bound: Vec<Option<Labels>>,
}

/// Scan a whole log from its first byte.
fn scan(bytes: &[u8]) -> Scan<'_> {
    Scan::new(bytes, &[])
}

impl<'a> Scan<'a> {
    fn new(bytes: &'a [u8], known: &'a [Option<Labels>]) -> Self {
        Scan {
            frames: Frames::new(bytes),
            known,
            scanned: Scanned::default(),
        }
    }

    /// What the entries yielded so far added to the log.
    pub fn finish(self) -> Scanned {
        self.scanned
    }

    /// The labels `reference` stands for.
    ///
    /// # Panics
    /// When no [`WalEntry::Record`] of this scan named `reference`.
    fn labels(&self, reference: usize) -> &Labels {
        let slot = match reference.checked_sub(self.known.len()) {
            None => &self.known[reference],
            Some(i) => &self.scanned.bound[i],
        };
        slot.as_ref().expect("a record names a bound reference")
    }

    /// The record a [`WalEntry::Record`] of this scan stands for.
    fn record(&self, reference: usize, sample: Sample) -> WalRecord {
        WalRecord {
            labels: self.labels(reference).clone(),
            sample,
        }
    }

    /// Run the scan to its end: each intact record goes to `on_record`
    /// with the scan that resolved it, damage is counted.
    fn drain(&mut self, mut on_record: impl FnMut(&Self, usize, Sample)) -> WalRecovery {
        let mut out = WalRecovery::default();
        while let Some(entry) = self.next() {
            match entry {
                WalEntry::Record {
                    reference, sample, ..
                } => on_record(self, reference, sample),
                WalEntry::Corrupt => out.corrupt_frames += 1,
                WalEntry::Unparsable => out.unparsable += 1,
                WalEntry::TornTail => out.truncated_tail = true,
            }
        }
        out
    }

    /// Parse the payload of the frame ending at `end` and resolve its
    /// series: the record's reference and sample.
    fn parse(&mut self, payload: &[u8], end: usize) -> Option<(usize, Sample)> {
        let (reference, binds, sample) = decode(payload)?;
        let reference = usize::try_from(reference).ok()?;
        let bound = &mut self.scanned.bound;
        match (binds, reference.checked_sub(self.known.len())) {
            (None, None) => {
                self.known[reference].as_ref()?;
            }
            (None, Some(slot)) => {
                bound.get(slot)?.as_ref()?;
            }
            (Some(labels), Some(slot)) => {
                // A writer numbers series in the order it first logs
                // them, so a binding record's reference lies past every
                // one bound so far, and past it only by references
                // whose own binding frames were lost earlier in these
                // bytes — one smallest frame each, at the least.
                if slot < bound.len() || slot >= end / MIN_BINDING_FRAME {
                    return None;
                }
                bound.resize(slot, None);
                bound.push(Some(labels));
            }
            (Some(_), None) => return None,
        }
        Some((reference, sample))
    }
}

impl Iterator for Scan<'_> {
    type Item = WalEntry;

    fn next(&mut self) -> Option<WalEntry> {
        Some(match self.frames.next()? {
            Frame::Record { payload, end } => match self.parse(payload, end) {
                Some((reference, sample)) => WalEntry::Record {
                    reference,
                    sample,
                    end,
                },
                None => WalEntry::Unparsable,
            },
            Frame::Corrupt => WalEntry::Corrupt,
            Frame::TornTail => WalEntry::TornTail,
        })
    }
}

/// Scan a whole log into records, quarantining damage. Never panics.
pub fn recover(bytes: &[u8]) -> WalRecovery {
    let mut records = Vec::new();
    let mut recovery = scan(bytes).drain(|scan, reference, sample| {
        records.push(scan.record(reference, sample));
    });
    recovery.records = records;
    recovery
}

/// Replays scanned records into a [`MetricStore`], resolving each series
/// reference to its store series once: the first record of a series
/// finds or creates the series by its labels, every later one appends
/// by id — no label hash, compare or [`Labels`] clone per sample.
///
/// One `Replay` serves one store fed by one log, across as many scans of
/// that log as it takes (a reference keeps its meaning for the log's
/// life). Samples the store gets any other way do not disturb it.
#[derive(Debug, Default)]
pub struct Replay {
    /// Store series id by reference, once resolved.
    ids: Vec<Option<usize>>,
}

impl Replay {
    /// Append `sample` to the store series that `reference` — named by a
    /// [`WalEntry::Record`] of `scan` — stands for. A rejected sample is
    /// the store's [`AppendError`], exactly as [`MetricStore::append`]
    /// would return it.
    ///
    /// # Panics
    /// When no record of `scan` named `reference`.
    pub fn append(
        &mut self,
        store: &mut MetricStore,
        scan: &Scan<'_>,
        reference: usize,
        sample: Sample,
    ) -> Result<(), AppendError> {
        if reference >= self.ids.len() {
            self.ids.resize(reference + 1, None);
        }
        let id = match self.ids[reference] {
            Some(id) => id,
            None => {
                let id = store.ensure_series(scan.labels(reference).clone());
                self.ids[reference] = Some(id);
                id
            }
        };
        store.append_at(id, sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{decode_all, MAGIC};
    use crate::labels::NAME_LABEL;

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
        let mut wal = Wal::default();
        let recs: Vec<WalRecord> = (0..5).map(record).collect();
        for r in &recs {
            wal.append(r);
        }
        let rec = recover(wal.bytes());
        assert!(rec.is_clean());
        assert_eq!(rec.records, recs);
    }

    /// Scan `framed` as the continuation of `wal` and adopt it.
    fn adopt(wal: &mut Wal, framed: &[u8]) {
        let mut next = wal.scan_next(framed);
        for entry in &mut next {
            assert!(matches!(entry, WalEntry::Record { .. }), "{entry:?}");
        }
        let scanned = next.finish();
        wal.adopt_frames(framed, scanned);
    }

    #[test]
    fn adopted_frames_equal_appended_ones() {
        let mut source = Wal::default();
        for i in 0..4 {
            source.append(&record(i));
        }
        let mut ends = Vec::new();
        for entry in scan(source.bytes()) {
            match entry {
                WalEntry::Record { end, .. } => ends.push(end),
                other => panic!("clean log scanned as {other:?}"),
            }
        }
        assert_eq!(ends.last(), Some(&source.len()));
        // Adopt the log in two shipments split at a frame boundary.
        let mut wal = Wal::default();
        let (head, tail) = source.bytes().split_at(ends[1]);
        adopt(&mut wal, head);
        adopt(&mut wal, tail);
        assert_eq!(wal.bytes(), source.bytes());
        // ... and keep appending behind them.
        wal.append(&record(4));
        assert_eq!(
            recover(wal.bytes()).records,
            (0..5).map(record).collect::<Vec<_>>()
        );
        // The adopting handle numbers series exactly as the source
        // does: the same next append yields the same bytes.
        source.append(&record(4));
        assert_eq!(wal.bytes(), source.bytes());
    }

    #[test]
    fn crash_at_every_byte_offset_never_loses_an_acked_write() {
        // The acceptance-criterion test: kill the writer at every byte
        // offset of the log, recover, and check that exactly the
        // prefix-closed set of fully framed (i.e. acknowledged) records
        // comes back — no corruption surfaced, no invented records.
        let mut wal = Wal::default();
        let recs: Vec<WalRecord> = (0..4).map(record).collect();
        let mut boundaries = vec![];
        for r in &recs {
            wal.append(r);
            boundaries.push(wal.len());
        }
        let bytes = wal.bytes();
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
        let mut wal = Wal::default();
        let recs: Vec<WalRecord> = (0..3).map(record).collect();
        for r in &recs {
            wal.append(r);
        }
        let mut bytes = wal.bytes().to_vec();
        // Flip a payload bit inside the second frame.
        let first_len = {
            let scan = decode_all(&bytes);
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
        // A write torn at every offset of its frame (no ack), then the
        // retry and a second record in full behind the fragment.
        // Recovery must quarantine the fragment and keep both
        // acknowledged records.
        let mut retried = Wal::default();
        retried.append(&record(0));
        let frame = retried.len();
        retried.append(&record(1));
        for cut in 1..frame {
            let mut log = retried.bytes()[..cut].to_vec();
            log.extend_from_slice(retried.bytes());
            let rec = recover(&log);
            assert_eq!(rec.records, vec![record(0), record(1)], "cut at {cut}");
            assert_eq!(rec.corrupt_frames, 1, "cut at {cut}");
            assert!(!rec.truncated_tail, "cut at {cut}");
        }
    }

    #[test]
    fn valid_frame_with_foreign_payload_is_unparsable_not_fatal() {
        let mut log = encode_record(b"{\"not\":\"a wal record\"}");
        let mut wal = Wal::default();
        wal.append(&record(1));
        log.extend_from_slice(wal.bytes());
        let rec = recover(&log);
        assert_eq!(rec.unparsable, 1);
        assert_eq!(rec.records, vec![record(1)]);
    }

    /// Records of three interleaved series whose timestamps and values
    /// hold the frame marker pair in their bytes.
    fn marked_records() -> Vec<WalRecord> {
        let series = |name: &str| Labels::from_pairs([(NAME_LABEL, name), ("nf", "amf")]);
        let marked = |fill: u8| {
            let bytes = [
                fill, MAGIC[0], MAGIC[1], fill, MAGIC[0], MAGIC[1], 0xF0, 0x3F,
            ];
            (
                i64::from_le_bytes(bytes) >> 8,
                f64::from_bits(u64::from_le_bytes(bytes)),
            )
        };
        ["a", "b", "a", "c", "b", "a", "c"]
            .iter()
            .zip(1u8..)
            .map(|(name, fill)| {
                let (ts, value) = marked(fill);
                WalRecord {
                    labels: series(name),
                    sample: Sample::new(ts, value),
                }
            })
            .collect()
    }

    /// A log of `records`, with the offset each frame ends at.
    fn log_of(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
        let mut wal = Wal::default();
        let mut ends = Vec::new();
        for r in records {
            wal.append(r);
            ends.push(wal.len());
        }
        (wal.bytes().to_vec(), ends)
    }

    #[test]
    fn interleaved_series_round_trip_and_carry_their_labels_once() {
        let recs = marked_records();
        let (bytes, ends) = log_of(&recs);
        let back = recover(&bytes);
        assert!(back.is_clean());
        assert_eq!(back.records, recs);
        // Every record of a series shares the one label allocation its
        // first record made.
        assert_eq!(
            back.records[0].labels.ptr_id(),
            back.records[2].labels.ptr_id()
        );
        assert_eq!(
            back.records[0].labels.ptr_id(),
            back.records[5].labels.ptr_id()
        );
        assert_ne!(
            back.records[0].labels.ptr_id(),
            back.records[1].labels.ptr_id()
        );
        // A by-reference frame is header + tag + reference + sample.
        let frame_len = |i: usize| ends[i] - ends[i - 1];
        assert_eq!(frame_len(2), FRAME_HEADER_LEN + 2 + 16);
        assert!(frame_len(1) > frame_len(2) + "__name__".len() + "nf".len());
        // The payloads really do hold marker bytes.
        let markers = bytes.windows(2).filter(|w| *w == MAGIC).count();
        assert!(markers >= 3 * recs.len(), "{markers} markers");
    }

    #[test]
    fn crash_at_every_byte_offset_of_a_log_full_of_marker_bytes_keeps_the_acked_prefix() {
        let recs = marked_records();
        let (bytes, ends) = log_of(&recs);
        for cut in 0..=bytes.len() {
            let rec = recover(&bytes[..cut]);
            let acked = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(rec.records, recs[..acked], "cut at {cut}");
            assert_eq!(rec.corrupt_frames, 0, "cut at {cut} surfaced corruption");
            assert_eq!(rec.unparsable, 0, "cut at {cut}");
            assert_eq!(
                rec.truncated_tail,
                cut != 0 && !ends.contains(&cut),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn no_single_bit_flip_surfaces_a_changed_sample() {
        let recs = marked_records();
        let (bytes, ends) = log_of(&recs);
        for bit in 0..bytes.len() * 8 {
            let mut damaged = bytes.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            let rec = recover(&damaged);
            assert!(!rec.is_clean(), "bit {bit} went unnoticed");
            // Everything before the hit frame survives; whatever
            // survives after it is an original record, in order.
            let hit = ends.iter().filter(|&&e| e <= bit / 8).count();
            assert_eq!(rec.records[..hit], recs[..hit], "bit {bit}");
            let mut later = recs[hit + 1..].iter();
            for got in &rec.records[hit..] {
                assert!(later.any(|want| want == got), "bit {bit} surfaced {got:?}");
            }
        }
    }

    #[test]
    fn losing_a_series_first_record_loses_that_series_and_nothing_else() {
        let recs = marked_records();
        let (mut bytes, ends) = log_of(&recs);
        // Record 1 is the first of series "b"; record 4 is its only
        // other sample.
        bytes[ends[0] + FRAME_HEADER_LEN + 4] ^= 0x20;
        let rec = recover(&bytes);
        // (The damaged frame's own marker bytes are tried as frames and
        // quarantined too, so it counts more than once.)
        assert!(rec.corrupt_frames >= 1);
        assert_eq!(rec.unparsable, 1);
        assert!(!rec.truncated_tail);
        let survivors: Vec<WalRecord> = [0, 2, 3, 5, 6].iter().map(|&i| recs[i].clone()).collect();
        assert_eq!(rec.records, survivors);
    }

    #[test]
    fn the_old_json_record_is_unparsable() {
        let json = br#"{"labels":[["__name__","auth_req"],["instance","amf-0"]],"sample":{"timestamp_ms":1000,"value":0.5}}"#;
        let rec = recover(&encode_record(json));
        assert_eq!(rec.unparsable, 1);
        assert!(rec.records.is_empty());
        assert_eq!(rec.corrupt_frames, 0);
    }

    /// Frame `payload` alone at the start of a log and scan it.
    fn scan_one(payload: &[u8]) -> WalEntry {
        let framed = encode_record(payload);
        let entry = scan(&framed).next().unwrap();
        entry
    }

    #[test]
    fn the_scan_never_guesses() {
        let sample = Sample::new(1_000, 0.5);
        let labels = Labels::from_pairs([(NAME_LABEL, "auth_req"), ("instance", "amf-0")]);
        let good = encode(0, Some(&labels), sample);
        assert!(matches!(scan_one(&good), WalEntry::Record { .. }));
        // A sample whose reference nothing bound.
        assert_eq!(scan_one(&encode(0, None, sample)), WalEntry::Unparsable);
        // A binding record for a reference the log is too short to
        // have reached, however large (no table is sized by it).
        for reference in [good.len() as u64, 1 << 20, u64::MAX] {
            assert_eq!(
                scan_one(&encode(reference, Some(&labels), sample)),
                WalEntry::Unparsable,
                "{reference}"
            );
        }
        // Label names out of order, and repeated.
        let with_names = |a: &str, b: &str| {
            let mut p = vec![TAG_SERIES, 0, 2];
            for text in [a, "1", b, "2"] {
                put_text(&mut p, text);
            }
            p.extend_from_slice(&good[good.len() - 16..]);
            p
        };
        assert!(matches!(
            scan_one(&with_names("a", "b")),
            WalEntry::Record { .. }
        ));
        assert_eq!(scan_one(&with_names("b", "a")), WalEntry::Unparsable);
        assert_eq!(scan_one(&with_names("a", "a")), WalEntry::Unparsable);
        // A label count, and a text length, with no bytes behind them.
        let mut counted = vec![TAG_SERIES, 0];
        put_varint(&mut counted, u64::MAX);
        counted.extend_from_slice(&good[good.len() - 16..]);
        assert_eq!(scan_one(&counted), WalEntry::Unparsable);
        let mut long_name = vec![TAG_SERIES, 0, 1];
        put_varint(&mut long_name, 1 << 40);
        long_name.extend_from_slice(&good[good.len() - 16..]);
        assert_eq!(scan_one(&long_name), WalEntry::Unparsable);
        // Text that is not UTF-8, an unknown tag, trailing bytes, a
        // payload cut short, a padded varint.
        let mut not_utf8 = with_names("a", "b");
        not_utf8[4] = 0xFF;
        assert_eq!(scan_one(&not_utf8), WalEntry::Unparsable);
        let mut tagged = good.clone();
        tagged[0] = 3;
        assert_eq!(scan_one(&tagged), WalEntry::Unparsable);
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(scan_one(&trailing), WalEntry::Unparsable);
        assert_eq!(scan_one(&good[..good.len() - 1]), WalEntry::Unparsable);
        assert_eq!(scan_one(&[]), WalEntry::Unparsable);
        let mut padded = vec![TAG_SERIES, 0x80, 0x00];
        padded.extend_from_slice(&good[2..]);
        assert_eq!(scan_one(&padded), WalEntry::Unparsable);
        // Binding a reference twice.
        let mut log = encode_record(&good);
        log.extend_from_slice(&encode_record(&good));
        let rec = recover(&log);
        assert_eq!((rec.records.len(), rec.unparsable), (1, 1));
    }

    /// Four series — one name-only, one without a name, one with an
    /// empty and a multi-byte value — interleaved, with two samples the
    /// store rejects as out of order.
    fn mixed_records() -> Vec<WalRecord> {
        let amf = Labels::from_pairs([
            (NAME_LABEL, "amf_registration_total"),
            ("instance", "amf-0"),
            ("nf", "amf"),
        ]);
        let up = Labels::name_only("up");
        let smf = Labels::from_pairs([
            (NAME_LABEL, "smf_session_seconds"),
            ("cell", "Zürich-7"),
            ("le", ""),
            ("slice", "eMBB"),
        ]);
        let bare = Labels::from_pairs([("job", "scrape")]);
        [
            (&amf, 1_000, 1.0),
            (&up, 1_000, 1.0),
            (&amf, 2_000, 2.5),
            (&smf, 1_500, -0.0),
            (&amf, 1_500, 9.0),
            (&up, 2_000, 0.0),
            (&bare, -5, f64::INFINITY),
            (&smf, 3_000, 1e300),
            (&amf, 3_000, 3.25),
            (&smf, 3_000, 7.0),
        ]
        .into_iter()
        .map(|(labels, ts, value)| WalRecord {
            labels: labels.clone(),
            sample: Sample::new(ts, value),
        })
        .collect()
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Every series of `store` in id order, with its samples' bits.
    fn contents(store: &MetricStore) -> Vec<(Labels, Vec<(i64, u64)>)> {
        store
            .iter()
            .map(|s| {
                let bits = s
                    .samples()
                    .iter()
                    .map(|x| (x.timestamp_ms, x.value.to_bits()))
                    .collect();
                (s.labels().clone(), bits)
            })
            .collect()
    }

    #[test]
    fn the_log_bytes_are_the_ones_the_pair_vector_build_wrote_and_replay_alike() {
        // Pinned on the build before label sets moved into one buffer
        // and before the CRC read eight bytes a step.
        const LOG_FNV: u64 = 0xfc36_93c5_59d2_9e4b;
        const LOG_LEN: usize = 420;
        let recs = mixed_records();
        let (bytes, _) = log_of(&recs);
        assert_eq!((fnv1a(&bytes), bytes.len()), (LOG_FNV, LOG_LEN));
        let back = recover(&bytes);
        assert!(back.is_clean());
        assert_eq!(back.records, recs);

        // Replaying by reference builds the store appending every
        // record by its labels builds: same series, ids, samples and
        // rejections.
        let mut by_labels = MetricStore::new();
        let rejected_by_labels: Vec<bool> = recs
            .iter()
            .map(|r| by_labels.append(r.labels.clone(), r.sample).is_err())
            .collect();
        let mut replayed = MetricStore::new();
        let mut replay = Replay::default();
        let mut rejected = Vec::new();
        let mut log = scan(&bytes);
        while let Some(entry) = log.next() {
            let WalEntry::Record {
                reference, sample, ..
            } = entry
            else {
                panic!("clean log scanned as {entry:?}");
            };
            rejected.push(
                replay
                    .append(&mut replayed, &log, reference, sample)
                    .is_err(),
            );
        }
        assert_eq!(rejected, rejected_by_labels);
        assert_eq!(rejected.iter().filter(|&&r| r).count(), 2);
        assert_eq!(contents(&replayed), contents(&by_labels));
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        for shift in 0..64 {
            for v in [1u64 << shift, (1u64 << shift) - 1, u64::MAX >> shift] {
                let mut bytes = Vec::new();
                put_varint(&mut bytes, v);
                let mut c = Cursor::new(&bytes);
                assert_eq!(varint(&mut c), Some(v));
                assert!(c.done());
            }
        }
        // Ten continuation groups overflow 64 bits.
        let mut c = Cursor::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02]);
        assert_eq!(varint(&mut c), None);
    }
}
