//! Uniform-random schema sampling (paper §4.2.1: "approximately 600 of
//! the metric names, that are selected in a uniformly random manner
//! among all the metrics, are provided in the prompt").

use dio_catalog::DomainDb;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Sample `n` metric names uniformly without replacement (all names
/// when the catalog is smaller), sorted for prompt determinism.
pub fn sample_schema(db: &DomainDb, n: usize, seed: u64) -> Vec<String> {
    let mut names: Vec<String> = db.metric_names().into_iter().map(String::from).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    names.shuffle(&mut rng);
    names.truncate(n);
    names.sort_unstable();
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_catalog::{generate_catalog, CatalogConfig};

    fn db() -> DomainDb {
        DomainDb::from_catalog(generate_catalog(&CatalogConfig::default()))
    }

    #[test]
    fn samples_requested_count_without_duplicates() {
        let d = db();
        let s = sample_schema(&d, 600, 7);
        assert_eq!(s.len(), 600);
        let mut dedup = s.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 600);
    }

    #[test]
    fn sampling_is_seeded() {
        let d = db();
        assert_eq!(sample_schema(&d, 100, 1), sample_schema(&d, 100, 1));
        assert_ne!(sample_schema(&d, 100, 1), sample_schema(&d, 100, 2));
    }

    #[test]
    fn oversampling_returns_everything() {
        let d = db();
        let all = sample_schema(&d, usize::MAX, 1);
        assert_eq!(all.len(), d.metric_count());
    }
}
