//! No panic from damaged WAL bytes. A real log is mutated — bit flips,
//! truncation, spliced garbage, a duplicated frame, and a binding
//! record's label count or text length inflated under a recomputed
//! checksum — and fed to `dio_tsdb::recover` and to
//! `ShardCopy::recover_from_bytes` (and `apply_shipped`). Every case
//! returns. What survives is original records in their order, and a
//! rebuilt copy keeps a prefix of the bytes it was given, replayed
//! exactly as appending its records by their labels would.

use dio_cluster::ShardCopy;
use dio_tsdb::{
    encode_record, frames, recover, Frame, Labels, MetricStore, Sample, Wal, WalRecord,
    FRAME_HEADER_LEN, NAME_LABEL,
};
use proptest::prelude::*;

/// Four series interleaved — multi-byte and empty values, one set with
/// no name — over twelve records, one of them out of order.
fn original() -> (Vec<u8>, Vec<usize>, Vec<WalRecord>) {
    let series = [
        Labels::from_pairs([
            (NAME_LABEL, "amf_registration_total"),
            ("instance", "amf-0"),
        ]),
        Labels::from_pairs([
            (NAME_LABEL, "smf_session_seconds"),
            ("cell", "Zürich-7"),
            ("le", ""),
        ]),
        Labels::name_only("up"),
        Labels::from_pairs([("job", "scrape"), ("slice", "eMBB")]),
    ];
    let mut wal = Wal::default();
    let (mut ends, mut records) = (Vec::new(), Vec::new());
    for i in 0..12i64 {
        let labels = series[(i * 7 % 4) as usize].clone();
        let ts = if i == 9 { 500 } else { 1_000 * (i + 1) };
        let record = WalRecord {
            labels,
            sample: Sample::new(ts, f64::from_bits(0x3FF0_D10C_D10C_0000 | i as u64)),
        };
        wal.append(&record);
        ends.push(wal.len());
        records.push(record);
    }
    (wal.bytes().to_vec(), ends, records)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A varint at `at`: its value and the offset just past it.
fn varint_at(bytes: &[u8], mut at: usize) -> (u64, usize) {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = bytes[at];
        at += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            break;
        }
    }
    (v, at)
}

/// The frames of a clean log: `(start, payload)`.
fn frames_of(bytes: &[u8]) -> Vec<(usize, Vec<u8>)> {
    let mut start = 0;
    frames(bytes)
        .map(|frame| match frame {
            Frame::Record { payload, end } => {
                let at = std::mem::replace(&mut start, end);
                (at, payload.to_vec())
            }
            other => panic!("clean log scanned as {other:?}"),
        })
        .collect()
}

/// `log` with frame `index`'s payload rewritten by `edit` and framed
/// again, checksum and all — damage the CRC cannot see.
fn reframed(log: &[u8], index: usize, edit: impl FnOnce(&[u8]) -> Vec<u8>) -> Vec<u8> {
    let (start, payload) = &frames_of(log)[index];
    let end = start + FRAME_HEADER_LEN + payload.len();
    let mut out = log[..*start].to_vec();
    out.extend_from_slice(&encode_record(&edit(payload)));
    out.extend_from_slice(&log[end..]);
    out
}

/// Bytes that make framing and varints interesting.
fn garbage_byte() -> proptest::strategy::Select<u8> {
    prop::sample::select(vec![0xD1, 0x0C, 0x00, 0x01, 0x02, 0x7F, 0x80, 0xFF, b'a'])
}

/// One mutation of `log`, chosen by `kind`; `aux` places it. The
/// second value says whether it may repeat a record.
fn mutate(log: &[u8], ends: &[usize], kind: u64, aux: u64, garbage: &[u8]) -> (Vec<u8>, bool) {
    let pick = |n: usize| (aux % n as u64) as usize;
    let bindings: Vec<usize> = frames_of(log)
        .iter()
        .enumerate()
        .filter(|(_, (_, payload))| payload[0] == 1)
        .map(|(i, _)| i)
        .collect();
    let mut out = log.to_vec();
    match kind % 6 {
        0 => {
            let bit = pick(log.len() * 8);
            out[bit / 8] ^= 1 << (bit % 8);
        }
        1 => out.truncate(pick(log.len() + 1)),
        2 => {
            let at = pick(log.len() + 1);
            out.splice(at..at, garbage.iter().copied());
        }
        3 => {
            // A frame written twice, the copy right behind the original.
            let i = pick(ends.len());
            let start = if i == 0 { 0 } else { ends[i - 1] };
            out.splice(ends[i]..ends[i], log[start..ends[i]].to_vec());
            return (out, true);
        }
        4 => {
            // A label count past what the payload holds.
            out = reframed(log, bindings[pick(bindings.len())], |p| {
                let (_, at_count) = varint_at(p, 1);
                let (count, past) = varint_at(p, at_count);
                let mut edited = p[..at_count].to_vec();
                put_varint(&mut edited, count + 1 + (aux >> 8) % (1 << 40));
                edited.extend_from_slice(&p[past..]);
                edited
            });
        }
        _ => {
            // A name or value length past the end of the payload.
            out = reframed(log, bindings[pick(bindings.len())], |p| {
                let (_, at_count) = varint_at(p, 1);
                let (count, mut at) = varint_at(p, at_count);
                for _ in 0..(aux >> 8) % (2 * count) {
                    let (len, past) = varint_at(p, at);
                    at = past + len as usize;
                }
                let (_, past) = varint_at(p, at);
                let mut edited = p[..at].to_vec();
                put_varint(
                    &mut edited,
                    (p.len() - past) as u64 + 1 + (aux >> 16) % (1 << 40),
                );
                edited.extend_from_slice(&p[past..]);
                edited
            });
        }
    }
    (out, false)
}

/// True when every record of `got` is one of `want`, in `want`'s order
/// — strictly, or allowing a record to repeat.
fn in_order(got: &[WalRecord], want: &[WalRecord], repeats: bool) -> bool {
    let mut from = 0;
    got.iter()
        .all(|g| match want[from..].iter().position(|w| w == g) {
            Some(i) => {
                from += i + usize::from(!repeats);
                true
            }
            None => false,
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
fn the_inflated_fields_are_rejected_on_the_unmutated_log() {
    // Sanity for the two checksum-preserving mutations: each leaves a
    // frame that passes its CRC and that the decoder refuses — a
    // binding record, so the later samples of its series go with it.
    let (log, ends, records) = original();
    for kind in [4, 5] {
        for aux in [0, 1, 7, 1 << 20, u64::MAX] {
            let (bad, _) = mutate(&log, &ends, kind, aux, &[]);
            let back = recover(&bad);
            assert_eq!(back.corrupt_frames, 0, "kind {kind} aux {aux}");
            assert_eq!(
                back.records.len() + back.unparsable,
                records.len(),
                "kind {kind} aux {aux}"
            );
            assert!(back.unparsable >= 1, "kind {kind} aux {aux}");
        }
    }
}

proptest! {
    #[test]
    fn damaged_wal_bytes_never_panic_and_surface_only_original_records(
        aux in any::<u64>(),
        garbage in prop::collection::vec(garbage_byte(), 1..24),
    ) {
        let (log, ends, records) = original();
        for kind in 0..6 {
            let aux = aux.rotate_left(11 * kind as u32);
            let (bad, repeats) = mutate(&log, &ends, kind, aux, &garbage);
            let case = format!("kind {kind} aux {aux}");

            let back = recover(&bad);
            prop_assert!(in_order(&back.records, &records, repeats), "{}", case);

            let (copy, stopped_by) = ShardCopy::recover_from_bytes(&bad);
            let kept = copy.wal_bytes();
            prop_assert!(bad.starts_with(kept), "{}: not a prefix", case);
            prop_assert_eq!(stopped_by.is_none(), kept.len() == bad.len(), "{}", case);
            prop_assert_eq!(copy.verified_len(), kept.len(), "{}", case);
            let prefix = recover(kept);
            prop_assert!(prefix.is_clean(), "{}", case);
            prop_assert_eq!(copy.records(), prefix.records.len(), "{}", case);
            prop_assert!(back.records.starts_with(&prefix.records), "{}", case);
            let mut by_labels = MetricStore::new();
            for r in prefix.records {
                let _ = by_labels.append(r.labels, r.sample);
            }
            prop_assert_eq!(contents(&copy.store()), contents(&by_labels), "{}", case);

            let mut shipped = ShardCopy::new();
            if shipped.apply_shipped(&bad).is_ok() {
                prop_assert_eq!(shipped.wal_bytes(), &bad[..], "{}", case);
                prop_assert_eq!(contents(&shipped.store()), contents(&copy.store()), "{}", case);
            }
        }
    }
}
