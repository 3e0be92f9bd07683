//! The kill-at-every-byte-offset sweep, extended to the replication
//! path: whatever prefix of a shipped chunk survives the link — and
//! whatever single bit flips in flight — the replica either applies a
//! clean record prefix or rejects the whole shipment. It never
//! silently diverges from the primary, and catch-up shipping always
//! converges the copies byte-for-byte.

use dio_cluster::{ShardCopy, ShipReject};
use dio_tsdb::{Labels, NAME_LABEL, Sample};

/// Two interleaved series; every value holds the frame marker pair in
/// its bytes, so a cut or a flip lands among false markers.
fn primary_with(records: usize) -> (ShardCopy, Vec<usize>) {
    let mut primary = ShardCopy::new();
    let mut boundaries = Vec::new();
    for i in 0..records {
        let labels = Labels::from_pairs([
            (NAME_LABEL, "amf_registration_total"),
            ("instance", &format!("amf-{}", i % 2)),
        ]);
        let [m0, m1] = dio_tsdb::MAGIC;
        let value = f64::from_bits(u64::from_le_bytes([i as u8, m0, m1, 1, m0, m1, 0xF0, 0x3F]));
        primary
            .append_local(labels, Sample::new(1_000 * (i as i64 + 1), value))
            .unwrap();
        boundaries.push(primary.wal_len());
    }
    (primary, boundaries)
}

#[test]
fn truncation_at_every_byte_offset_never_diverges_replica() {
    let (primary, boundaries) = primary_with(4);
    let chunk = primary.bytes_from(0).to_vec();
    for cut in 0..=chunk.len() {
        let mut replica = ShardCopy::new();
        let acked_prefix = boundaries.iter().filter(|&&b| b <= cut).count();
        match replica.apply_shipped(&chunk[..cut]) {
            Ok(apply) => {
                // Only whole-frame prefixes may apply, and they must
                // apply exactly.
                assert!(
                    cut == 0 || boundaries.contains(&cut),
                    "cut {cut} mid-frame was applied"
                );
                assert_eq!(apply.applied, acked_prefix, "cut {cut}");
                assert_eq!(
                    replica.wal_bytes(),
                    &chunk[..cut],
                    "cut {cut} produced divergent replica bytes"
                );
            }
            Err(reject) => {
                assert_eq!(reject, ShipReject::TornTail, "cut {cut}");
                assert_eq!(replica.records(), 0, "cut {cut} partially applied");
            }
        }
        // Whatever happened, one pristine catch-up ship converges.
        replica
            .apply_shipped(primary.bytes_from(replica.records()))
            .unwrap();
        assert_eq!(
            replica.wal_bytes(),
            primary.wal_bytes(),
            "cut {cut} failed to converge after re-ship"
        );
    }
}

#[test]
fn every_single_bit_flip_in_flight_is_detected() {
    let (primary, _) = primary_with(3);
    let chunk = primary.bytes_from(0).to_vec();
    for bit in 0..chunk.len() * 8 {
        let mut damaged = chunk.clone();
        damaged[bit / 8] ^= 1 << (bit % 8);
        let mut replica = ShardCopy::new();
        match replica.apply_shipped(&damaged) {
            Err(_) => assert_eq!(replica.records(), 0, "bit {bit} partially applied"),
            Ok(_) => panic!("bit flip at {bit} went undetected and was applied"),
        }
        // Re-ship of the pristine chunk self-heals.
        replica.apply_shipped(&chunk).unwrap();
        assert_eq!(replica.wal_bytes(), primary.wal_bytes(), "bit {bit}");
    }
}

#[test]
fn rot_anywhere_in_a_dead_nodes_wal_rejoins_as_the_clean_prefix() {
    // A node dies, one bit of its durable WAL rots while it is down —
    // in every frame in turn, mid-log included — and it restarts. The
    // rebuild must keep exactly the frames before the rotted one: a
    // later frame kept behind a skipped one would sit at the wrong
    // record index, and catch-up from `records()` would then re-apply
    // the primary's tail on top of it.
    let (primary, boundaries) = primary_with(6);
    let durable = primary.wal_bytes();
    for bit in 0..durable.len() * 8 {
        let mut rotted = durable.to_vec();
        rotted[bit / 8] ^= 1 << (bit % 8);
        let (mut copy, _) = ShardCopy::recover_from_bytes(&rotted);
        let frame = boundaries.iter().filter(|&&b| b <= bit / 8).count();
        assert_eq!(copy.records(), frame, "bit {bit} (frame {frame})");
        assert_eq!(copy.wal_bytes(), &durable[..copy.wal_len()], "bit {bit}");
        // One pristine catch-up ship from the primary converges.
        copy.apply_shipped(primary.bytes_from(copy.records()))
            .unwrap();
        assert_eq!(
            copy.wal_bytes(),
            primary.wal_bytes(),
            "bit {bit} (frame {frame})"
        );
        assert_eq!(
            copy.store().sample_count(),
            primary.store().sample_count(),
            "bit {bit} (frame {frame})"
        );
    }
}
