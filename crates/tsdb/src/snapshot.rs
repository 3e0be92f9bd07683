//! Checksummed binary snapshots of the metric store with fsck-style
//! recovery.
//!
//! A snapshot is a sequence of CRC-framed records, one *series* per
//! frame, so damage is contained: a corrupt frame quarantines one
//! series, not the snapshot. Sealed chunks are embedded in compressed
//! form — a snapshot round trip never decompresses and recompresses
//! the columns, it just revalidates them.
//!
//! Frame payload layout (v2, little endian):
//!
//! ```text
//! u8   version (= 2)
//! u32  labels JSON length, then the labels as JSON pairs
//! u32  sealed chunk count
//!   per chunk: u32 payload length + chunk payload (see Chunk docs)
//! u32  head sample count
//!   per sample: i64 timestamp_ms + u64 value bits (f64::to_bits)
//! ```
//!
//! [`fsck_snapshot`] rebuilds a store from whatever survives and
//! reports exactly what it had to quarantine — it never aborts and
//! never panics, whatever the input bytes. Each embedded chunk is
//! fully decoded once during fsck so a semantically damaged chunk
//! (valid CRC, bad bitstream) is caught at recovery time, then kept
//! compressed in the rebuilt store.

use crate::chunk::Chunk;
use crate::cursor::Cursor;
use crate::labels::Labels;
use crate::sample::Sample;
use crate::series::Series;
use crate::storage::MetricStore;
use dio_faults::{decode_all, encode_record};

/// Snapshot payload format version.
pub(crate) const SNAPSHOT_VERSION: u8 = 2;

/// What [`fsck_snapshot`] recovered and what it quarantined.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FsckReport {
    /// Series rebuilt intact.
    pub series_recovered: usize,
    /// Samples across all recovered series.
    pub samples_recovered: usize,
    /// Series lost to checksum/framing damage or unparsable payloads.
    pub quarantined: usize,
    /// The snapshot ended mid-frame (torn final write).
    pub truncated_tail: bool,
}

impl FsckReport {
    /// True when nothing was quarantined or truncated.
    pub fn is_clean(&self) -> bool {
        self.quarantined == 0 && !self.truncated_tail
    }
}

/// Encode one series as a v2 snapshot payload (unframed).
fn series_payload(series: &Series) -> Vec<u8> {
    // Labels serialization cannot fail: plain string pairs.
    let labels_json = serde_json::to_string(series.labels()).expect("labels serialize");
    let mut p = Vec::new();
    p.push(SNAPSHOT_VERSION);
    p.extend_from_slice(&(labels_json.len() as u32).to_le_bytes());
    p.extend_from_slice(labels_json.as_bytes());
    p.extend_from_slice(&(series.chunks().len() as u32).to_le_bytes());
    for chunk in series.chunks() {
        let blob = chunk.payload();
        p.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        p.extend_from_slice(&blob);
    }
    p.extend_from_slice(&(series.head().len() as u32).to_le_bytes());
    for s in series.head() {
        p.extend_from_slice(&s.timestamp_ms.to_le_bytes());
        p.extend_from_slice(&s.value.to_bits().to_le_bytes());
    }
    p
}

/// Parse and validate one v2 payload back into a series. `None` means
/// the frame is quarantined.
fn parse_series_payload(payload: &[u8]) -> Option<Series> {
    let mut c = Cursor::new(payload);
    if c.u8()? != SNAPSHOT_VERSION {
        return None;
    }
    let labels_len = c.u32()? as usize;
    let labels: Labels = serde_json::from_str(std::str::from_utf8(c.take(labels_len)?).ok()?).ok()?;
    let chunk_count = c.u32()? as usize;
    let mut chunks = Vec::with_capacity(chunk_count.min(1024));
    for _ in 0..chunk_count {
        let blob_len = c.u32()? as usize;
        // `from_payload` fully decodes both columns, so bitstream
        // damage inside a CRC-clean frame still quarantines here.
        chunks.push(Chunk::from_payload(c.take(blob_len)?).ok()?);
    }
    let head_count = c.u32()? as usize;
    let mut head = Vec::with_capacity(head_count.min(1024));
    for _ in 0..head_count {
        let ts = c.u64()? as i64;
        let bits = c.u64()?;
        head.push(Sample::new(ts, f64::from_bits(bits)));
    }
    if !c.done() {
        return None;
    }
    // Cross-tier ordering (chunks before head, all strictly
    // increasing) is re-validated from scratch: a frame that passes
    // its CRC can still carry semantically bad data from a buggy
    // producer.
    Series::from_parts(labels, chunks, head)
}

/// Serialize the whole store, one checksummed frame per series.
/// Sealed chunks are embedded compressed.
pub(crate) fn write_snapshot(store: &MetricStore) -> Vec<u8> {
    let mut out = Vec::new();
    for series in store.iter() {
        out.extend_from_slice(&encode_record(&series_payload(series)));
    }
    out
}

/// Rebuild a store from snapshot bytes, quarantining every series whose
/// frame is damaged, unparsable, or semantically invalid.
pub(crate) fn fsck_snapshot(bytes: &[u8]) -> (MetricStore, FsckReport) {
    let scan = decode_all(bytes);
    let mut report = FsckReport {
        quarantined: scan.corrupt_frames(),
        truncated_tail: scan.truncated_tail,
        ..FsckReport::default()
    };
    let mut store = MetricStore::new();
    for payload in &scan.records {
        let Some(series) = parse_series_payload(payload) else {
            report.quarantined += 1;
            continue;
        };
        let count = series.len();
        // Frames repeating a label set (impossible from
        // `write_snapshot`, but fsck trusts nothing) merge through the
        // append path; any sample that does not extend the existing
        // series quarantines the whole frame.
        if store.has_series(series.labels()) {
            let mut scratch = store.clone();
            if scratch.adopt_series(series) > 0 {
                report.quarantined += 1;
                continue;
            }
            store = scratch;
        } else {
            store.adopt_series(series);
        }
        report.series_recovered += 1;
        report.samples_recovered += count;
    }
    (store, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::CHUNK_SIZE;
    use crate::labels::{Labels, NAME_LABEL};
    use crate::sample::Sample;
    use dio_faults::FRAME_HEADER_LEN;

    fn store() -> MetricStore {
        let mut st = MetricStore::new();
        for (name, inst, base) in [
            ("auth_req", "amf-0", 1_000i64),
            ("auth_req", "amf-1", 1_500),
            ("pdu_est", "smf-0", 2_000),
        ] {
            for k in 0..4 {
                st.append(
                    Labels::from_pairs([(NAME_LABEL, name), ("instance", inst)]),
                    Sample::new(base + k * 1_000, k as f64),
                )
                .unwrap();
            }
        }
        st
    }

    #[test]
    fn clean_roundtrip_preserves_everything() {
        let st = store();
        let bytes = write_snapshot(&st);
        let (back, report) = fsck_snapshot(&bytes);
        assert!(report.is_clean());
        assert_eq!(report.series_recovered, 3);
        assert_eq!(report.samples_recovered, 12);
        assert_eq!(back.series_count(), st.series_count());
        assert_eq!(back.sample_count(), st.sample_count());
        assert_eq!(back.metric_names(), st.metric_names());
    }

    #[test]
    fn sealed_chunks_stay_compressed_across_roundtrip() {
        let mut st = MetricStore::new();
        let labels = Labels::name_only("big");
        for i in 0..(CHUNK_SIZE * 2 + 9) as i64 {
            st.append(labels.clone(), Sample::new(i * 15_000, (i * 3) as f64))
                .unwrap();
        }
        let bytes = write_snapshot(&st);
        // The snapshot embeds compressed columns: far smaller than the
        // raw 16 bytes/sample would be.
        let raw = st.sample_count() * 16;
        assert!(bytes.len() * 2 < raw, "snapshot {} vs raw {raw}", bytes.len());
        let (back, report) = fsck_snapshot(&bytes);
        assert!(report.is_clean());
        let orig = &st.series_for("big")[0];
        let got = &back.series_for("big")[0];
        assert_eq!(got.chunks().len(), orig.chunks().len());
        assert_eq!(got.head().len(), orig.head().len());
        // Bit-exact sample recovery.
        let (a, b) = (orig.samples(), got.samples());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.timestamp_ms, y.timestamp_ms);
            assert_eq!(x.value.to_bits(), y.value.to_bits());
        }
    }

    #[test]
    fn special_float_values_survive() {
        let mut st = MetricStore::new();
        let labels = Labels::name_only("weird");
        for (i, v) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0]
            .into_iter()
            .enumerate()
        {
            st.append(labels.clone(), Sample::new(i as i64 * 1_000 + 1, v))
                .unwrap();
        }
        let (back, report) = fsck_snapshot(&write_snapshot(&st));
        assert!(report.is_clean());
        let got = back.series_for("weird")[0].samples();
        assert!(got[0].value.is_nan());
        assert_eq!(got[1].value, f64::INFINITY);
        assert_eq!(got[2].value, f64::NEG_INFINITY);
        assert_eq!(got[3].value.to_bits(), (-0.0f64).to_bits());
        assert_eq!(got[4].value.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn corrupt_frame_quarantines_one_series_only() {
        let bytes = {
            let mut b = write_snapshot(&store());
            b[FRAME_HEADER_LEN + 3] ^= 0x01; // damage the first series' payload
            b
        };
        let (back, report) = fsck_snapshot(&bytes);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.series_recovered, 2);
        assert_eq!(back.series_count(), 2);
        assert!(!report.truncated_tail);
    }

    #[test]
    fn truncated_snapshot_recovers_the_complete_prefix() {
        let bytes = write_snapshot(&store());
        for cut in 0..=bytes.len() {
            let (_, report) = fsck_snapshot(&bytes[..cut]);
            assert_eq!(report.quarantined, 0, "cut at {cut}");
            assert!(report.series_recovered <= 3);
        }
        // Cutting mid-final-frame keeps the first two series.
        let (back, report) = fsck_snapshot(&bytes[..bytes.len() - 1]);
        assert_eq!(report.series_recovered, 2);
        assert!(report.truncated_tail);
        assert_eq!(back.series_count(), 2);
    }

    #[test]
    fn out_of_order_samples_inside_a_valid_frame_are_quarantined() {
        // A frame that passes its CRC can still be semantically bad if
        // it was written by a buggy producer; fsck re-validates the
        // ordering invariants from scratch.
        let mut series = Series::new(Labels::name_only("m"));
        series.append(Sample::new(1_000, 1.0)).unwrap();
        let mut payload = series_payload(&series);
        // Append a second head sample that goes backwards in time.
        let head_count_at = payload.len() - 16 - 4;
        payload[head_count_at..head_count_at + 4].copy_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&500i64.to_le_bytes());
        payload.extend_from_slice(&2.0f64.to_bits().to_le_bytes());
        let bytes = encode_record(&payload);
        let (_, report) = fsck_snapshot(&bytes);
        assert_eq!(report.series_recovered, 0);
        assert_eq!(report.quarantined, 1);
    }

    #[test]
    fn label_names_out_of_order_or_repeated_are_quarantined() {
        // `Labels` binary-searches its pairs: a CRC-clean frame whose
        // names are swapped or repeated must not become a series whose
        // `name()` misses and that `by_name` never indexes.
        let mut series = Series::new(Labels::from_pairs([(NAME_LABEL, "m"), ("instance", "a")]));
        series.append(Sample::new(1_000, 1.0)).unwrap();
        let good = series_payload(&series);
        let old_len = u32::from_le_bytes(good[1..5].try_into().unwrap()) as usize;
        let with_labels = |json: &str| {
            let mut p = vec![SNAPSHOT_VERSION];
            p.extend_from_slice(&(json.len() as u32).to_le_bytes());
            p.extend_from_slice(json.as_bytes());
            p.extend_from_slice(&good[5 + old_len..]);
            encode_record(&p)
        };
        let (store, report) = fsck_snapshot(&with_labels(r#"[["__name__","m"],["instance","a"]]"#));
        assert!(report.is_clean());
        assert!(store.has_metric("m"));
        for bad in [
            r#"[["instance","a"],["__name__","m"]]"#,
            r#"[["__name__","m"],["__name__","n"]]"#,
        ] {
            let (store, report) = fsck_snapshot(&with_labels(bad));
            assert_eq!((report.series_recovered, report.quarantined), (0, 1), "{bad}");
            assert_eq!(store.series_count(), 0, "{bad}");
        }
    }

    #[test]
    fn wrong_version_is_quarantined() {
        let mut series = Series::new(Labels::name_only("m"));
        series.append(Sample::new(1_000, 1.0)).unwrap();
        let mut payload = series_payload(&series);
        payload[0] = 1; // pretend v1
        let (_, report) = fsck_snapshot(&encode_record(&payload));
        assert_eq!(report.series_recovered, 0);
        assert_eq!(report.quarantined, 1);
    }

    #[test]
    fn trailing_garbage_in_frame_is_quarantined() {
        let mut series = Series::new(Labels::name_only("m"));
        series.append(Sample::new(1_000, 1.0)).unwrap();
        let mut payload = series_payload(&series);
        payload.push(0xAB);
        let (_, report) = fsck_snapshot(&encode_record(&payload));
        assert_eq!(report.series_recovered, 0);
        assert_eq!(report.quarantined, 1);
    }

    #[test]
    fn garbage_input_never_panics() {
        let garbage: Vec<u8> = (0..512u32).map(|i| (i * 37 % 251) as u8).collect();
        let (store, report) = fsck_snapshot(&garbage);
        assert_eq!(store.series_count(), 0);
        assert!(!report.is_clean());
    }
}
