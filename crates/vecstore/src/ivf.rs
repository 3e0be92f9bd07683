//! Inverted-file approximate index (FAISS `IndexIVFFlat` analogue).
//!
//! A k-means coarse quantiser partitions the rows of a [`FlatIndex`]
//! into `nlist` cells. A query probes only the `nprobe` cells whose
//! centroids are most similar and scans their rows in the shared
//! matrix. `nprobe == nlist` degenerates to exact search.

use crate::flat::FlatIndex;
use crate::index::{SearchHit, SearchStats, VectorIndex};
use crate::kmeans::{kmeans, KMeansConfig};
use dio_embed::Vector;
use serde::{Deserialize, Serialize};

/// IVF hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IvfConfig {
    /// Number of inverted lists (k-means cells).
    pub nlist: usize,
    /// Cells probed per query.
    pub nprobe: usize,
    /// Training iterations for the coarse quantiser.
    pub train_iters: usize,
    /// RNG seed for quantiser training.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        IvfConfig {
            nlist: 32,
            nprobe: 4,
            train_iters: 25,
            seed: 0x6976_6673_6565_6400, // "ivfseed" in ASCII
        }
    }
}

/// An IVF index: centroids and id-only inverted lists over the
/// [`FlatIndex`] that owns the rows. Built in one shot from training
/// data with [`IvfIndex::train`]; further vectors can be added
/// afterwards and are routed to their nearest cell.
#[derive(Debug, Clone, Serialize)]
pub struct IvfIndex {
    nprobe: usize,
    /// One row per cell.
    centroids: FlatIndex,
    /// `lists[cell]` holds the ids of the cell's rows.
    lists: Vec<Vec<usize>>,
    rows: FlatIndex,
}

/// The persisted shape, checked on load so that a search never
/// indexes a list or a row that is not there.
#[derive(Deserialize)]
struct IvfWire {
    nprobe: usize,
    centroids: FlatIndex,
    lists: Vec<Vec<usize>>,
    rows: FlatIndex,
}

impl<'de> Deserialize<'de> for IvfIndex {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let wire = IvfWire::from_value(value)?;
        let fits = !wire.lists.is_empty()
            && wire.lists.len() == wire.centroids.len()
            && wire.centroids.dims() == wire.rows.dims()
            && wire.lists.iter().flatten().all(|&id| id < wire.rows.len());
        if !fits {
            return Err(serde::Error::msg("IVF lists do not fit the centroids and rows"));
        }
        Ok(IvfIndex {
            nprobe: wire.nprobe.max(1),
            centroids: wire.centroids,
            lists: wire.lists,
            rows: wire.rows,
        })
    }
}

impl IvfIndex {
    /// Train the coarse quantiser on `data` and index all of it.
    /// `nlist` and `nprobe` are clamped to `1..=data.len()`.
    pub fn train(dims: usize, config: IvfConfig, data: Vec<Vector>) -> Self {
        assert!(!data.is_empty(), "IVF training needs data");
        let km = kmeans(
            &data,
            &KMeansConfig {
                k: config.nlist.clamp(1, data.len()),
                max_iters: config.train_iters,
                seed: config.seed,
            },
        );
        let mut lists = vec![Vec::new(); km.centroids.len()];
        for (id, &cell) in km.assignments.iter().enumerate() {
            lists[cell].push(id);
        }
        IvfIndex {
            nprobe: config.nprobe.clamp(1, data.len()),
            centroids: FlatIndex::from_vectors(dims, km.centroids),
            lists,
            rows: FlatIndex::from_vectors(dims, data),
        }
    }
}

impl VectorIndex for IvfIndex {
    fn add(&mut self, vector: Vector) -> usize {
        let nearest = self.centroids.search(&vector, 1);
        let id = self.rows.add(vector);
        self.lists[nearest.first().map_or(0, |cell| cell.id)].push(id);
        id
    }

    fn search(&self, query: &Vector, k: usize) -> Vec<SearchHit> {
        self.search_with_stats(query, k).0
    }

    fn search_with_stats(&self, query: &Vector, k: usize) -> (Vec<SearchHit>, SearchStats) {
        if k == 0 {
            return (Vec::new(), SearchStats::default());
        }
        let mut ids: Vec<usize> = self
            .centroids
            .search(query, self.nprobe)
            .into_iter()
            .flat_map(|cell| self.lists[cell.id].iter().copied())
            .collect();
        // Ascending ids, so the scan breaks ties as `FlatIndex` does.
        ids.sort_unstable();
        let stats = SearchStats {
            candidates_scanned: ids.len(),
        };
        (self.rows.scan(query, ids.len(), k, |i| ids[i]), stats)
    }

    fn similarity(&self, a: usize, b: usize) -> Option<f32> {
        self.rows.similarity(a, b)
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn dims(&self) -> usize {
        self.rows.dims()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_unit(rng: &mut ChaCha8Rng, dims: usize) -> Vector {
        let v: Vec<f32> = (0..dims).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Vector(v).normalized()
    }

    fn dataset(n: usize, dims: usize) -> Vec<Vector> {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        (0..n).map(|_| random_unit(&mut rng, dims)).collect()
    }

    fn cfg(nlist: usize, nprobe: usize) -> IvfConfig {
        IvfConfig {
            nlist,
            nprobe,
            train_iters: 20,
            seed: 5,
        }
    }

    #[test]
    fn indexes_all_training_vectors() {
        let data = dataset(200, 16);
        let idx = IvfIndex::train(16, cfg(8, 2), data);
        assert_eq!(idx.len(), 200);
        assert_eq!(idx.lists.len(), 8);
    }

    #[test]
    fn full_probe_matches_flat_exactly() {
        let data = dataset(150, 12);
        let flat = FlatIndex::from_vectors(12, data.clone());
        let ivf = IvfIndex::train(12, cfg(10, 10), data);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..20 {
            let q = random_unit(&mut rng, 12);
            let fh: Vec<usize> = flat.search(&q, 5).into_iter().map(|h| h.id).collect();
            let ih: Vec<usize> = ivf.search(&q, 5).into_iter().map(|h| h.id).collect();
            assert_eq!(fh, ih);
        }
    }

    #[test]
    fn recall_improves_with_nprobe() {
        let data = dataset(400, 16);
        let flat = FlatIndex::from_vectors(16, data.clone());
        // Training is deterministic: the same cells, probed wider.
        let probing = |nprobe| IvfIndex::train(16, cfg(16, nprobe), data.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let queries: Vec<Vector> = (0..30).map(|_| random_unit(&mut rng, 16)).collect();

        let recall = |ivf: &IvfIndex| -> f64 {
            let mut hit = 0usize;
            let mut total = 0usize;
            for q in &queries {
                let truth: Vec<usize> = flat.search(q, 10).into_iter().map(|h| h.id).collect();
                let got: Vec<usize> = ivf.search(q, 10).into_iter().map(|h| h.id).collect();
                hit += truth.iter().filter(|t| got.contains(t)).count();
                total += truth.len();
            }
            hit as f64 / total as f64
        };

        let r1 = recall(&probing(1));
        let r8 = recall(&probing(8));
        let r16 = recall(&probing(16));
        assert!(r8 >= r1, "recall should not drop with more probes: {r1} -> {r8}");
        assert!(r16 > 0.999, "full probe must be exact, got {r16}");
    }

    #[test]
    fn add_after_training_is_searchable() {
        let data = dataset(50, 8);
        let mut ivf = IvfIndex::train(8, cfg(4, 4), data);
        let special = Vector(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let id = ivf.add(special.clone());
        assert_eq!(id, 50);
        let hits = ivf.search(&special, 1);
        assert_eq!(hits[0].id, 50);
        assert!(hits[0].score > 0.999);
    }

    #[test]
    fn search_k_zero_is_empty() {
        let ivf = IvfIndex::train(8, cfg(2, 1), dataset(10, 8));
        assert!(ivf.search(&dataset(1, 8)[0], 0).is_empty());
    }

    #[test]
    fn stats_report_probed_fraction() {
        let data = dataset(200, 8);
        let ivf = IvfIndex::train(8, cfg(8, 2), data.clone());
        let q = dataset(1, 8).pop().unwrap();
        let (hits, stats) = ivf.search_with_stats(&q, 5);
        assert_eq!(hits, ivf.search(&q, 5));
        assert!(stats.candidates_scanned > 0);
        assert!(
            stats.candidates_scanned < ivf.len(),
            "2/8 probes must not scan the whole store"
        );
        // Full probe scans everything.
        let ivf = IvfIndex::train(8, cfg(8, 8), data);
        let (_, full) = ivf.search_with_stats(&q, 5);
        assert_eq!(full.candidates_scanned, ivf.len());
        // k == 0 does no work.
        assert_eq!(ivf.search_with_stats(&q, 0).1.candidates_scanned, 0);
    }

    #[test]
    fn training_is_deterministic() {
        let data = dataset(120, 8);
        let a = IvfIndex::train(8, cfg(6, 2), data.clone());
        let b = IvfIndex::train(8, cfg(6, 2), data);
        let q = dataset(1, 8).pop().unwrap();
        assert_eq!(a.search(&q, 7), b.search(&q, 7));
    }

    /// The IVF shape: a probe width, centroids, ids per list, and the
    /// rows once.
    const IVF_SNAPSHOT: &str =
        "{\"nprobe\":1,\"centroids\":{\"dims\":2,\"vectors\":[[1,0],[0,1]]},\
\"lists\":[[0,2],[1]],\"rows\":{\"dims\":2,\"vectors\":[[1,0],[0,1],[1,0]]}}";

    #[test]
    fn ivf_roundtrips_through_json() {
        let idx = IvfIndex::train(8, cfg(4, 2), dataset(40, 8));
        let json = serde_json::to_string(&idx).unwrap();
        let back: IvfIndex = serde_json::from_str(&json).unwrap();
        let q = dataset(1, 8).pop().unwrap();
        assert_eq!(idx.search(&q, 5), back.search(&q, 5));

        let data = vec![Vector(vec![1.0, 0.0]), Vector(vec![0.0, 1.0]), Vector(vec![1.0, 0.0])];
        let config = IvfConfig {
            nlist: 2,
            nprobe: 1,
            ..IvfConfig::default()
        };
        let json = serde_json::to_string(&IvfIndex::train(2, config, data)).unwrap();
        assert_eq!(json, IVF_SNAPSHOT);
        let back: IvfIndex = serde_json::from_str(IVF_SNAPSHOT).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), IVF_SNAPSHOT);
    }

    #[test]
    fn ivf_snapshot_naming_a_missing_row_or_list_is_an_error_not_a_panic() {
        // One cell over two 2-d rows; each case breaks one field.
        let snapshot = |centroids: &str, lists: &str, rows: &str| {
            let json = format!(
                r#"{{"nprobe":1,"centroids":{{"dims":2,"vectors":[{centroids}]}},"lists":[{lists}],"rows":{{"dims":{rows}}}}}"#
            );
            serde_json::from_str::<IvfIndex>(&json)
        };
        let rows = r#"2,"vectors":[[1,0],[0,1]]"#;
        for (centroids, lists, rows) in [
            ("[1,0]", "[0,2]", rows),
            ("[1,0]", "[0],[1]", rows),
            ("[1,0]", "[0,1]", r#"3,"vectors":[[1,0,0],[0,1,0]]"#),
            ("[1,0]", "[0,1]", r#"2,"vectors":[[1,0],[0]]"#),
            ("[1,0]", "[0,1]", r#"2,"vectors":[[1,0],[0,1e999]]"#),
            ("", "", r#"2,"vectors":[]"#),
        ] {
            assert!(snapshot(centroids, lists, rows).is_err(), "{centroids} {lists} {rows} loaded");
        }
        let idx = snapshot("[1,0]", "[0,1]", rows).unwrap();
        assert_eq!(idx.search(&Vector(vec![0.0, 1.0]), 1)[0].id, 1);
    }

    #[test]
    #[should_panic(expected = "needs data")]
    fn training_on_empty_panics() {
        IvfIndex::train(8, cfg(4, 1), vec![]);
    }
}
