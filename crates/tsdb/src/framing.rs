//! Checksummed, length-prefixed record framing: the frame format of the
//! write-ahead log.
//!
//! Every logged record is written as one frame:
//!
//! ```text
//! +------+------+----------------+----------------+---------+
//! | 0xD1 | 0x0C | len (u32 LE)   | crc32 (u32 LE) | payload |
//! +------+------+----------------+----------------+---------+
//! ```
//!
//! [`frames`] scans a byte stream frame by frame, borrowing each
//! payload, and classifies every anomaly instead of aborting
//! ([`decode_all`] is the same scan collected into owned records): a
//! frame whose checksum fails (or whose header is garbled) is
//! *quarantined* and the scan resynchronises on the next magic marker; a
//! final frame cut short by a torn write is reported as clean
//! truncation.
//!
//! Payloads are arbitrary bytes (WAL records are binary),
//! so the marker pair may occur inside one. A marker is therefore only
//! ever a *candidate*: what follows it must still fit the stream and
//! pass its checksum to count as a frame, and a frame cut short by the
//! end of the stream is a torn tail unless a whole frame can be found
//! after it — a marker among the bytes that are left does not make it
//! corruption. (The one thing resynchronisation cannot tell apart is a
//! payload that embeds a complete, correctly checksummed frame: after
//! damage to the frame around it, the embedded one is surfaced.
//! Readers parse what they are handed and quarantine what is not
//! theirs.)

use crate::crc32::crc32;

/// Frame magic marker.
pub const MAGIC: [u8; 2] = [0xD1, 0x0C];

/// Bytes of magic + length + checksum preceding each payload.
pub const FRAME_HEADER_LEN: usize = 10;

/// Encode one payload as a framed record.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// What a scan of a framed byte stream found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct ScanReport {
    /// Payloads of every frame that passed its checksum, in order.
    pub(crate) records: Vec<Vec<u8>>,
    /// Frame indexes (0-based, counting every frame attempt) that were
    /// quarantined for a bad magic, bad length, or checksum mismatch.
    pub(crate) corrupt_at: Vec<usize>,
    /// The stream ended inside a frame — a torn final write. The
    /// partial frame is discarded; everything before it is intact.
    pub(crate) truncated_tail: bool,
}

impl ScanReport {
    /// Number of quarantined frames.
    pub(crate) fn corrupt_frames(&self) -> usize {
        self.corrupt_at.len()
    }

    /// True when every byte decoded cleanly.
    #[cfg(test)]
    fn is_clean(&self) -> bool {
        self.corrupt_at.is_empty() && !self.truncated_tail
    }
}

/// Position of the next magic marker at or after `from`, if any.
fn find_magic(bytes: &[u8], from: usize) -> Option<usize> {
    if from >= bytes.len() {
        return None;
    }
    bytes[from..]
        .windows(MAGIC.len())
        .position(|w| w == MAGIC)
        .map(|p| from + p)
}

/// The whole frame at `pos` — marker, complete header, payload inside
/// the stream, checksum good — as `(payload, end)`.
fn whole_frame_at(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let header = bytes.get(pos..pos + FRAME_HEADER_LEN)?;
    if !header.starts_with(&MAGIC) {
        return None;
    }
    let field = |at: usize| [header[at], header[at + 1], header[at + 2], header[at + 3]];
    let len = u32::from_le_bytes(field(2)) as usize;
    let end = (pos + FRAME_HEADER_LEN).checked_add(len)?;
    let payload = bytes.get(pos + FRAME_HEADER_LEN..end)?;
    (crc32(payload) == u32::from_le_bytes(field(6))).then_some((payload, end))
}

/// True when a whole frame starts at some marker at or after `from`.
fn whole_frame_follows(bytes: &[u8], mut from: usize) -> bool {
    while let Some(at) = find_magic(bytes, from) {
        if whole_frame_at(bytes, at).is_some() {
            return true;
        }
        from = at + 1;
    }
    false
}

/// One step of a frame scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A frame that passed its checksum.
    Record {
        /// The frame's payload, borrowed from the scanned bytes.
        payload: &'a [u8],
        /// Offset just past the frame. Frames scanned without an
        /// intervening [`Frame::Corrupt`] are contiguous, so this is
        /// also where the next one starts.
        end: usize,
    },
    /// A bad magic, bad length or checksum mismatch: the region is
    /// quarantined and the scan resynchronises on the next magic
    /// marker.
    Corrupt,
    /// The stream ended inside a frame — a torn final write. Always the
    /// last item.
    TornTail,
}

/// Borrowing frame-by-frame scan of a byte stream; see [`frames`].
#[derive(Debug, Clone)]
pub(crate) struct Frames<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Scan `bytes` frame by frame without copying a payload. Never
/// panics, never skips an intact frame that precedes the damage.
pub fn frames(bytes: &[u8]) -> impl Iterator<Item = Frame<'_>> {
    Frames::new(bytes)
}

impl<'a> Frames<'a> {
    /// [`frames`] as the type a WAL scan holds.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Frames { bytes, pos: 0 }
    }

    /// Quarantine the region at the cursor and resynchronise on the
    /// next magic marker at or after `search_from`. With no marker left
    /// the scan ends, on `at_end`.
    fn resync(&mut self, search_from: usize, at_end: Frame<'a>) -> Frame<'a> {
        match find_magic(self.bytes, search_from) {
            Some(next) => {
                self.pos = next;
                Frame::Corrupt
            }
            None => {
                self.pos = self.bytes.len();
                at_end
            }
        }
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Frame<'a>;

    fn next(&mut self) -> Option<Frame<'a>> {
        let (bytes, pos) = (self.bytes, self.pos);
        if pos >= bytes.len() {
            return None;
        }
        if let Some((payload, end)) = whole_frame_at(bytes, pos) {
            self.pos = end;
            return Some(Frame::Record { payload, end });
        }
        // Not at a magic marker: quarantine the garbage run and resync.
        // Garbage to the end of the stream that is shorter than a
        // marker may be a torn header byte.
        if !bytes[pos..].starts_with(&MAGIC) {
            let at_end = if bytes.len() - pos < MAGIC.len() {
                Frame::TornTail
            } else {
                Frame::Corrupt
            };
            return Some(self.resync(pos + 1, at_end));
        }
        // Header incomplete: torn write at the end of the stream.
        if bytes.len() - pos < FRAME_HEADER_LEN {
            self.pos = bytes.len();
            return Some(Frame::TornTail);
        }
        let len = [
            bytes[pos + 2],
            bytes[pos + 3],
            bytes[pos + 4],
            bytes[pos + 5],
        ];
        let frame_len = FRAME_HEADER_LEN + u32::from_le_bytes(len) as usize;
        if bytes.len() - pos < frame_len && !whole_frame_follows(bytes, pos + MAGIC.len()) {
            // The frame extends past the end and nothing whole follows
            // it: a torn final write. What is left of its payload may
            // hold marker bytes; they are not frames.
            self.pos = bytes.len();
            return Some(Frame::TornTail);
        }
        // A checksum mismatch, or a length field corrupted into
        // pointing past the end while more frames follow.
        Some(self.resync(pos + MAGIC.len(), Frame::Corrupt))
    }
}

/// Scan `bytes` into records, quarantining corruption and detecting a
/// torn tail: [`frames`] collected, with every payload copied out.
pub(crate) fn decode_all(bytes: &[u8]) -> ScanReport {
    let mut report = ScanReport::default();
    for (frame_idx, frame) in frames(bytes).enumerate() {
        match frame {
            Frame::Record { payload, .. } => report.records.push(payload.to_vec()),
            Frame::Corrupt => report.corrupt_at.push(frame_idx),
            Frame::TornTail => report.truncated_tail = true,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn stream<P: AsRef<[u8]>>(payloads: &[P]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            out.extend_from_slice(&encode_record(p.as_ref()));
        }
        out
    }

    /// Offset each frame of `stream(payloads)` ends at.
    fn frame_ends<P: AsRef<[u8]>>(payloads: &[P]) -> Vec<usize> {
        let mut end = 0;
        payloads
            .iter()
            .map(|p| {
                end += FRAME_HEADER_LEN + p.as_ref().len();
                end
            })
            .collect()
    }

    #[test]
    fn roundtrips_multiple_records() {
        let s = stream(&["alpha", "", r#"{"k":"v"}"#]);
        let r = decode_all(&s);
        assert!(r.is_clean());
        assert_eq!(r.records.len(), 3);
        assert_eq!(r.records[0], b"alpha");
        assert_eq!(r.records[1], b"");
        assert_eq!(r.records[2], br#"{"k":"v"}"#);
    }

    #[test]
    fn empty_stream_is_clean() {
        assert!(decode_all(&[]).is_clean());
    }

    #[test]
    fn every_truncation_point_is_clean_prefix_or_torn_tail() {
        let payloads = ["first-record", "second", "third-one-longer"];
        let s = stream(&payloads);
        // Frame boundaries: records become visible exactly when their
        // full frame fits in the prefix.
        let mut boundary = Vec::new();
        let mut acc = 0;
        for p in &payloads {
            acc += FRAME_HEADER_LEN + p.len();
            boundary.push(acc);
        }
        for cut in 0..=s.len() {
            let r = decode_all(&s[..cut]);
            let expected = boundary.iter().filter(|&&b| b <= cut).count();
            assert_eq!(r.records.len(), expected, "cut at {cut}");
            assert_eq!(r.corrupt_frames(), 0, "cut at {cut} surfaced corruption");
            let at_boundary = cut == 0 || boundary.contains(&cut);
            assert_eq!(r.truncated_tail, !at_boundary, "cut at {cut}");
            for (i, rec) in r.records.iter().enumerate() {
                assert_eq!(rec, payloads[i].as_bytes(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn a_cut_frame_holding_marker_bytes_is_a_torn_tail_not_corruption() {
        // Binary payloads: the marker pair at the start, in the middle,
        // at the end and back to back. (The old scanner took a marker
        // inside the cut frame for the start of later data and called
        // the cut frame corrupt.)
        let payloads: [&[u8]; 4] = [
            &[0xD1, 0x0C, 0x01, 0x02],
            &[0x01, 0xD1, 0x0C, 0x02, 0xD1],
            &[0x0C, 0xD1, 0x0C, 0xD1, 0x0C],
            &[0x01, 0x02, 0xD1, 0x0C],
        ];
        let s = stream(&payloads);
        let boundary = frame_ends(&payloads);
        for cut in 0..=s.len() {
            let r = decode_all(&s[..cut]);
            let whole = boundary.iter().filter(|&&b| b <= cut).count();
            assert_eq!(r.records, payloads[..whole], "cut at {cut}");
            assert_eq!(r.corrupt_frames(), 0, "cut at {cut} surfaced corruption");
            let at_boundary = cut == 0 || boundary.contains(&cut);
            assert_eq!(r.truncated_tail, !at_boundary, "cut at {cut}");
        }
        // A length field rotted into pointing past the end is still
        // corruption when whole frames follow it.
        let mut rotted = s.clone();
        rotted[boundary[0] + 4] = 0xFF;
        let r = decode_all(&rotted);
        assert_eq!(r.records, [payloads[0], payloads[2], payloads[3]]);
        assert!(r.corrupt_frames() >= 1);
        assert!(!r.truncated_tail);
    }

    #[test]
    fn bit_flip_quarantines_only_the_hit_frame() {
        let payloads = ["aaaa", "bbbb", "cccc"];
        let s = stream(&payloads);
        // Flip one bit in the middle record's payload.
        let mut broken = s.clone();
        let second_payload = FRAME_HEADER_LEN + 4 + FRAME_HEADER_LEN + 1;
        broken[second_payload] ^= 0x10;
        let r = decode_all(&broken);
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.records[0], b"aaaa");
        assert_eq!(r.records[1], b"cccc");
        assert_eq!(r.corrupt_frames(), 1);
        assert!(!r.truncated_tail);
    }

    #[test]
    fn garbled_magic_resyncs_to_next_record() {
        let mut s = stream(&["one", "two"]);
        s[0] = 0x00; // destroy the first frame's magic
        let r = decode_all(&s);
        assert_eq!(r.records, vec![b"two".to_vec()]);
        assert_eq!(r.corrupt_frames(), 1);
    }

    #[test]
    fn corrupt_length_field_does_not_swallow_later_records() {
        let mut s = stream(&["head", "tail"]);
        s[2] = 0xFF; // inflate the first frame's length
        let r = decode_all(&s);
        assert_eq!(r.records, vec![b"tail".to_vec()]);
        assert_eq!(r.corrupt_frames(), 1);
        assert!(!r.truncated_tail);
    }

    #[test]
    fn pure_garbage_is_quarantined_not_panicked() {
        let garbage: Vec<u8> = (0u8..=255)
            .filter(|&b| b != 0xD1)
            .cycle()
            .take(300)
            .collect();
        let r = decode_all(&garbage);
        assert!(r.records.is_empty());
        assert!(r.corrupt_frames() > 0 || r.truncated_tail);
    }

    /// The scanner as it was before [`frames`] existed, kept verbatim:
    /// the oracle [`decode_all`] must keep matching byte for byte.
    fn decode_all_oracle(bytes: &[u8]) -> ScanReport {
        let mut report = ScanReport::default();
        let mut pos = 0usize;
        let mut frame_idx = 0usize;
        while pos < bytes.len() {
            // Not at a magic marker: quarantine the garbage run and resync.
            if bytes[pos..].len() < MAGIC.len() || bytes[pos..pos + MAGIC.len()] != MAGIC {
                match find_magic(bytes, pos + 1) {
                    Some(next) => {
                        report.corrupt_at.push(frame_idx);
                        frame_idx += 1;
                        pos = next;
                        continue;
                    }
                    None => {
                        // Garbage to end of stream. If it is shorter than a
                        // magic marker it may be a torn header byte.
                        if bytes.len() - pos < MAGIC.len() {
                            report.truncated_tail = true;
                        } else {
                            report.corrupt_at.push(frame_idx);
                        }
                        return report;
                    }
                }
            }
            // Header incomplete: torn write at the end of the stream.
            if bytes.len() - pos < FRAME_HEADER_LEN {
                report.truncated_tail = true;
                return report;
            }
            let len = u32::from_le_bytes(bytes[pos + 2..pos + 6].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(bytes[pos + 6..pos + 10].try_into().unwrap());
            let payload_start = pos + FRAME_HEADER_LEN;
            if payload_start + len > bytes.len() {
                // Frame extends past the end: either a torn final write or a
                // corrupted length field. A later magic marker means more
                // data follows, so it must be corruption.
                match find_magic(bytes, pos + MAGIC.len()) {
                    Some(next) => {
                        report.corrupt_at.push(frame_idx);
                        frame_idx += 1;
                        pos = next;
                        continue;
                    }
                    None => {
                        report.truncated_tail = true;
                        return report;
                    }
                }
            }
            let payload = &bytes[payload_start..payload_start + len];
            if crc32(payload) == crc {
                report.records.push(payload.to_vec());
                pos = payload_start + len;
            } else {
                report.corrupt_at.push(frame_idx);
                pos = match find_magic(bytes, pos + MAGIC.len()) {
                    Some(next) => next,
                    None => return report,
                };
            }
            frame_idx += 1;
        }
        report
    }

    /// [`decode_all`] against the old scanner. They part in one case
    /// only, the one binary payloads forced: a frame cut short by the
    /// end of the stream with a marker among the bytes left of it, and
    /// no whole frame after. The old scanner took the marker for later
    /// data, called the cut frame corrupt and scanned on — finding no
    /// record, there being no whole frame; this one reports the torn
    /// tail. Same records, and a prefix of the old quarantine list.
    fn matches_oracle(bytes: &[u8]) -> bool {
        let (new, old) = (decode_all(bytes), decode_all_oracle(bytes));
        new == old
            || (new.records == old.records
                && new.truncated_tail
                && old.corrupt_at.len() > new.corrupt_at.len()
                && old.corrupt_at.starts_with(&new.corrupt_at))
    }

    /// Bytes that make framing interesting: both magic bytes (so
    /// payloads and garbage hold false markers), header-looking zeros
    /// and ordinary text.
    fn byte() -> proptest::strategy::Select<u8> {
        prop::sample::select(vec![0xD1, 0x0C, 0x00, 0x01, 0xFF, b'a', b'{', b'"'])
    }

    /// Marker bytes and filler, no zero.
    fn marker_byte() -> proptest::strategy::Select<u8> {
        prop::sample::select(vec![0xD1, 0x0C, 0x01, 0xFF, b'a'])
    }

    proptest! {
        #[test]
        fn frames_match_the_old_scanner_under_truncation_at_every_offset(
            payloads in prop::collection::vec(prop::collection::vec(byte(), 0..24), 0..8),
        ) {
            let s = stream(&payloads);
            for cut in 0..=s.len() {
                prop_assert!(matches_oracle(&s[..cut]), "cut {}", cut);
            }
        }

        #[test]
        fn frames_match_the_old_scanner_under_every_single_bit_flip(
            payloads in prop::collection::vec(prop::collection::vec(byte(), 0..24), 1..8),
        ) {
            let s = stream(&payloads);
            for bit in 0..s.len() * 8 {
                let mut damaged = s.clone();
                damaged[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(matches_oracle(&damaged), "bit {}", bit);
            }
        }

        #[test]
        fn frames_match_the_old_scanner_under_injected_garbage(
            payloads in prop::collection::vec(prop::collection::vec(byte(), 0..24), 0..8),
            garbage in prop::collection::vec(byte(), 1..16),
            at in any::<usize>(),
            cut in any::<usize>(),
        ) {
            let mut s = stream(&payloads);
            let at = at % (s.len() + 1);
            s.splice(at..at, garbage);
            let cut = cut % (s.len() + 1);
            for stream in [&s[..], &s[..cut], &s[cut..]] {
                prop_assert!(matches_oracle(stream), "{:?}", stream);
            }
        }

        // The two below draw payloads without zero bytes, so none can
        // hold a frame of its own (a length field needs zeros to fit).

        #[test]
        fn truncation_of_binary_payloads_yields_the_whole_frame_prefix_and_no_corruption(
            payloads in prop::collection::vec(prop::collection::vec(marker_byte(), 0..24), 0..8),
        ) {
            let s = stream(&payloads);
            let ends = frame_ends(&payloads);
            for cut in 0..=s.len() {
                let r = decode_all(&s[..cut]);
                let whole = ends.iter().filter(|&&e| e <= cut).count();
                prop_assert_eq!(&r.records[..], &payloads[..whole], "cut {}", cut);
                prop_assert_eq!(r.corrupt_frames(), 0, "cut {}", cut);
                prop_assert_eq!(r.truncated_tail, cut != 0 && !ends.contains(&cut), "cut {}", cut);
            }
        }

        #[test]
        fn a_single_bit_flip_costs_exactly_the_frame_it_hit(
            payloads in prop::collection::vec(prop::collection::vec(marker_byte(), 0..24), 1..8),
        ) {
            let s = stream(&payloads);
            let ends = frame_ends(&payloads);
            for bit in 0..s.len() * 8 {
                let mut damaged = s.clone();
                damaged[bit / 8] ^= 1 << (bit % 8);
                let hit = ends.iter().filter(|&&e| e <= bit / 8).count();
                let mut survivors = payloads.clone();
                survivors.remove(hit);
                let r = decode_all(&damaged);
                prop_assert_eq!(r.records, survivors, "bit {}", bit);
                prop_assert!(!r.is_clean(), "bit {}", bit);
            }
        }

        #[test]
        fn record_ends_are_the_frame_boundaries(
            payloads in prop::collection::vec(prop::collection::vec(byte(), 0..24), 0..8),
        ) {
            let s = stream(&payloads);
            let mut boundary = 0;
            let mut seen = 0;
            for (frame, want) in frames(&s).zip(&payloads) {
                boundary += FRAME_HEADER_LEN + want.len();
                prop_assert_eq!(frame, Frame::Record { payload: want, end: boundary });
                seen += 1;
            }
            prop_assert_eq!(seen, payloads.len());
            prop_assert_eq!(boundary, s.len());
        }
    }
}
