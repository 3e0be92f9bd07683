//! Index persistence (FAISS `write_index`/`read_index` analogue).
//!
//! Indexes serialise to JSON. The embedding corpus is rebuilt offline
//! (paper §3.2: "an offline process of converting the text samples …
//! into word embeddings"), so persistence lets the copilot skip that
//! step on restart.
//!
//! One on-disk format (`save_checked`/`load_checked`, in memory
//! `to_bytes_checked`/`from_bytes_checked`): the index's JSON
//! (`to_json`/`from_json`, the codec) chunked into CRC-framed segments
//! (see `dio_faults::framing`), so *any* truncation or bit flip is
//! reported as a structured [`PersistError::Corrupt`] naming the
//! damaged segment — an index is never silently rebuilt smaller than it
//! was saved.

use dio_faults::{decode_all, encode_record};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fs;
use std::io;
use std::path::Path;

/// Target payload size of one checked-format segment.
const SEGMENT_BYTES: usize = 1024;

/// Errors from saving or loading an index.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// JSON (de)serialisation error.
    Codec(serde_json::Error),
    /// The checked format detected truncation or corruption.
    Corrupt {
        /// What was damaged and where.
        detail: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Codec(e) => write!(f, "codec error: {e}"),
            PersistError::Corrupt { detail } => write!(f, "corrupt index: {detail}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Codec(e) => Some(e),
            PersistError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Codec(e)
    }
}

/// Serialise any serde-serialisable index (or `DocIndex`) to a string.
pub fn to_json<T: Serialize>(value: &T) -> Result<String, PersistError> {
    Ok(serde_json::to_string(value)?)
}

/// Deserialise an index from a JSON string.
pub fn from_json<T: DeserializeOwned>(json: &str) -> Result<T, PersistError> {
    Ok(serde_json::from_str(json)?)
}

/// Serialise an index in the checked format: JSON chunked into
/// CRC-framed segments of at most [`SEGMENT_BYTES`] payload bytes.
pub fn to_bytes_checked<T: Serialize>(value: &T) -> Result<Vec<u8>, PersistError> {
    let json = to_json(value)?;
    let bytes = json.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() + bytes.len() / SEGMENT_BYTES * 16 + 16);
    // Chunk on byte boundaries: segments are reassembled before the
    // JSON is parsed, so a cut inside a UTF-8 sequence is harmless.
    // An empty JSON document still writes one (empty) segment so an
    // empty file is distinguishable from "saved nothing".
    let mut chunks = bytes.chunks(SEGMENT_BYTES);
    let first = chunks.next().unwrap_or(b"");
    out.extend_from_slice(&encode_record(first));
    for chunk in chunks {
        out.extend_from_slice(&encode_record(chunk));
    }
    Ok(out)
}

/// Deserialise an index from the checked format. Any truncation,
/// bit flip, or framing damage is a [`PersistError::Corrupt`] naming
/// the first damaged segment — never a silently smaller index.
pub fn from_bytes_checked<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, PersistError> {
    if bytes.is_empty() {
        return Err(PersistError::Corrupt {
            detail: "empty file (expected at least one segment)".to_string(),
        });
    }
    let scan = decode_all(bytes);
    if let Some(&seg) = scan.corrupt_at.first() {
        return Err(PersistError::Corrupt {
            detail: format!(
                "segment {seg} failed its CRC ({} of {} segments damaged)",
                scan.corrupt_at.len(),
                scan.corrupt_at.len() + scan.records.len()
            ),
        });
    }
    if scan.truncated_tail {
        return Err(PersistError::Corrupt {
            detail: format!(
                "truncated after segment {} (torn final segment)",
                scan.records.len()
            ),
        });
    }
    let mut json = Vec::new();
    for rec in &scan.records {
        json.extend_from_slice(rec);
    }
    let json = String::from_utf8(json).map_err(|e| PersistError::Corrupt {
        detail: format!("reassembled payload is not UTF-8: {e}"),
    })?;
    from_json(&json)
}

/// Write an index to a file in the checked format.
pub fn save_checked<T: Serialize, P: AsRef<Path>>(
    value: &T,
    path: P,
) -> Result<(), PersistError> {
    fs::write(path, to_bytes_checked(value)?)?;
    Ok(())
}

/// Read a checked-format index back from a file.
pub fn load_checked<T: DeserializeOwned, P: AsRef<Path>>(path: P) -> Result<T, PersistError> {
    let data = fs::read(path)?;
    from_bytes_checked(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::index::VectorIndex;
    use crate::ivf::{IvfConfig, IvfIndex};
    use dio_embed::Vector;

    fn v(x: &[f32]) -> Vector {
        Vector(x.to_vec()).normalized()
    }

    /// The IVF shape: a probe width, centroids, ids per list, and the
    /// rows once.
    const IVF_SNAPSHOT: &str =
        "{\"nprobe\":1,\"centroids\":{\"dims\":2,\"vectors\":[[1,0],[0,1]]},\
\"lists\":[[0,2],[1]],\"rows\":{\"dims\":2,\"vectors\":[[1,0],[0,1],[1,0]]}}";

    #[test]
    fn flat_roundtrips_through_json() {
        let mut idx = FlatIndex::new(3);
        idx.add(v(&[1.0, 0.0, 0.0]));
        idx.add(v(&[0.0, 1.0, 0.0]));
        let json = to_json(&idx).unwrap();
        let back: FlatIndex = from_json(&json).unwrap();
        assert_eq!(back.len(), 2);
        let q = v(&[0.9, 0.1, 0.0]);
        assert_eq!(idx.search(&q, 2), back.search(&q, 2));
    }

    #[test]
    fn ivf_roundtrips_through_json() {
        let data: Vec<Vector> = (0..40)
            .map(|i| v(&[(i % 5) as f32 + 1.0, (i % 7) as f32, 1.0]))
            .collect();
        let idx = IvfIndex::train(3, IvfConfig::default(), data);
        let json = to_json(&idx).unwrap();
        let back: IvfIndex = from_json(&json).unwrap();
        let q = v(&[2.0, 3.0, 1.0]);
        assert_eq!(idx.search(&q, 5), back.search(&q, 5));

        let data = vec![v(&[1.0, 0.0]), v(&[0.0, 1.0]), v(&[1.0, 0.0])];
        let config = IvfConfig {
            nlist: 2,
            nprobe: 1,
            ..IvfConfig::default()
        };
        let json = to_json(&IvfIndex::train(2, config, data)).unwrap();
        assert_eq!(json, IVF_SNAPSHOT);
        let back: IvfIndex = from_json(IVF_SNAPSHOT).unwrap();
        assert_eq!(to_json(&back).unwrap(), IVF_SNAPSHOT);
    }

    #[test]
    fn ivf_snapshot_naming_a_missing_row_or_list_is_an_error_not_a_panic() {
        // One cell over two 2-d rows; each case breaks one field.
        let snapshot = |centroids: &str, lists: &str, rows: &str| {
            let json = format!(
                r#"{{"nprobe":1,"centroids":{{"dims":2,"vectors":[{centroids}]}},"lists":[{lists}],"rows":{{"dims":{rows}}}}}"#
            );
            from_json::<IvfIndex>(&json)
        };
        let rows = r#"2,"vectors":[[1,0],[0,1]]"#;
        for (centroids, lists, rows) in [
            ("[1,0]", "[0,2]", rows),
            ("[1,0]", "[0],[1]", rows),
            ("[1,0]", "[0,1]", r#"3,"vectors":[[1,0,0],[0,1,0]]"#),
            ("", "", r#"2,"vectors":[]"#),
        ] {
            assert!(snapshot(centroids, lists, rows).is_err(), "{centroids} {lists} {rows} loaded");
        }
        let idx = snapshot("[1,0]", "[0,1]", rows).unwrap();
        assert_eq!(idx.search(&v(&[0.0, 1.0]), 1)[0].id, 1);
    }

    #[test]
    fn corrupt_json_reports_codec_error() {
        let err = from_json::<FlatIndex>("{not json").unwrap_err();
        assert!(matches!(err, PersistError::Codec(_)));
        assert!(err.to_string().contains("codec"));
    }

    #[test]
    fn missing_file_reports_io_error() {
        let err = load_checked::<FlatIndex, _>("/nonexistent/dir/idx.dio").unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }

    fn big_flat() -> FlatIndex {
        // Large enough for several checked segments.
        let mut idx = FlatIndex::new(8);
        for i in 0..200 {
            let mut coords = vec![0.0f32; 8];
            coords[i % 8] = 1.0 + (i as f32) * 0.01;
            coords[(i + 3) % 8] = 0.5;
            idx.add(v(&coords));
        }
        idx
    }

    #[test]
    fn checked_format_roundtrips() {
        let idx = big_flat();
        let bytes = to_bytes_checked(&idx).unwrap();
        assert!(
            bytes.len() > 2 * SEGMENT_BYTES,
            "test index too small to span segments"
        );
        let back: FlatIndex = from_bytes_checked(&bytes).unwrap();
        assert_eq!(back.len(), idx.len());
        let q = v(&[0.9, 0.1, 0.0, 0.0, 0.2, 0.0, 0.0, 0.0]);
        assert_eq!(idx.search(&q, 5), back.search(&q, 5));
    }

    #[test]
    fn every_truncation_is_a_structured_error_never_a_smaller_index() {
        // The satellite bugfix: a truncated index file must never load
        // as a silently smaller index. Every strict prefix of the
        // checked format is an error.
        let bytes = to_bytes_checked(&big_flat()).unwrap();
        for cut in 0..bytes.len() {
            let err = from_bytes_checked::<FlatIndex>(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, PersistError::Corrupt { .. } | PersistError::Codec(_)),
                "cut at {cut} gave {err}"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        // Sample bit flips across the file (every byte is too slow for
        // a unit test; stride through all regions incl. headers).
        let bytes = to_bytes_checked(&big_flat()).unwrap();
        for pos in (0..bytes.len()).step_by(97) {
            for bit in [0, 5] {
                let mut damaged = bytes.clone();
                damaged[pos] ^= 1 << bit;
                assert!(
                    from_bytes_checked::<FlatIndex>(&damaged).is_err(),
                    "flip at byte {pos} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn checked_save_and_load_file() {
        let dir = std::env::temp_dir().join("dio_vecstore_persist_checked_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flat.dio");
        let idx = big_flat();
        save_checked(&idx, &path).unwrap();
        let back: FlatIndex = load_checked(&path).unwrap();
        assert_eq!(back.len(), idx.len());
        // Truncate the file on disk: load must error, not shrink.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() / 2]).unwrap();
        assert!(load_checked::<FlatIndex, _>(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_checked_file_is_corrupt_not_empty_index() {
        let err = from_bytes_checked::<FlatIndex>(&[]).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }));
    }
}
