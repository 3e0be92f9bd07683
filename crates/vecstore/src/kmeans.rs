//! Deterministic k-means clustering (the IVF coarse quantiser).
//!
//! Lloyd's algorithm with k-means++ style seeding driven by a seeded
//! ChaCha8 RNG, so training the same data with the same config always
//! yields the same centroids.

use dio_embed::{cosine, Vector};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// k-means hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// RNG seed for centroid initialisation.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 16,
            max_iters: 25,
            seed: 0x6b6d_6561_6e73_0001, // "kmeans" in ASCII + 1
        }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct KMeansResult {
    /// Cluster centroids (unit-normalised).
    pub centroids: Vec<Vector>,
    /// Assignment of each input vector to a centroid index.
    pub assignments: Vec<usize>,
    /// Iterations actually run.
    pub iterations: usize,
}

/// Run k-means over `data` (vectors are treated as directions: cosine
/// assignment, centroids re-normalised each round — spherical k-means,
/// which matches cosine retrieval).
///
/// When `data.len() <= k` every point becomes its own centroid.
pub(crate) fn kmeans(data: &[Vector], config: &KMeansConfig) -> KMeansResult {
    assert!(config.k > 0, "k must be positive");
    assert!(!data.is_empty(), "cannot cluster an empty dataset");
    let dims = data[0].dims();
    for d in data {
        assert_eq!(d.dims(), dims, "inconsistent vector dims");
    }

    if data.len() <= config.k {
        return KMeansResult {
            centroids: data.iter().map(|v| v.normalized()).collect(),
            assignments: (0..data.len()).collect(),
            iterations: 0,
        };
    }

    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut centroids = init_centroids(data, config.k, &mut rng);
    let mut assignments = vec![0usize; data.len()];
    let mut iterations = 0;

    for _ in 0..config.max_iters {
        iterations += 1;
        // Assignment step.
        let mut changed = false;
        for (i, v) in data.iter().enumerate() {
            let best = nearest_centroid(v, &centroids);
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Update step.
        let mut sums = vec![Vector::zeros(dims); centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (i, v) in data.iter().enumerate() {
            sums[assignments[i]].add_scaled(v, 1.0);
            counts[assignments[i]] += 1;
        }
        for (c, (sum, count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
            if *count > 0 {
                *c = sum.normalized();
            }
            // Empty clusters keep their previous centroid; with k-means++
            // seeding this is rare and harmless for IVF probing.
        }
        if !changed {
            break;
        }
    }

    KMeansResult {
        centroids,
        assignments,
        iterations,
    }
}

/// k-means++ seeding: the first centroid is a random point, each further
/// centroid is chosen with probability proportional to squared cosine
/// *distance* (1 - similarity) to the nearest chosen centroid.
fn init_centroids(data: &[Vector], k: usize, rng: &mut ChaCha8Rng) -> Vec<Vector> {
    let mut centroids = Vec::with_capacity(k);
    let first = rng.gen_range(0..data.len());
    centroids.push(data[first].normalized());

    while centroids.len() < k {
        let weights: Vec<f64> = data
            .iter()
            .map(|v| {
                let best = centroids
                    .iter()
                    .map(|c| cosine(v, c))
                    .fold(f32::MIN, f32::max);
                let d = (1.0 - best).max(0.0) as f64;
                d * d
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let pick = if total <= 0.0 {
            // All points coincide with existing centroids; pick uniformly.
            rng.gen_range(0..data.len())
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = data.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if target < *w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            chosen
        };
        centroids.push(data[pick].normalized());
    }
    centroids
}

/// Index of the centroid most cosine-similar to `v` (ties → lowest index).
pub(crate) fn nearest_centroid(v: &Vector, centroids: &[Vector]) -> usize {
    let mut best = 0;
    let mut best_score = f32::MIN;
    for (i, c) in centroids.iter().enumerate() {
        let s = cosine(v, c);
        if s > best_score {
            best_score = s;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: &[f32]) -> Vector {
        Vector(x.to_vec()).normalized()
    }

    fn two_blobs() -> Vec<Vector> {
        let mut data = Vec::new();
        for i in 0..20 {
            let eps = i as f32 * 0.001;
            data.push(v(&[1.0, eps, 0.0]));
            data.push(v(&[0.0, eps, 1.0]));
        }
        data
    }

    fn cfg(k: usize) -> KMeansConfig {
        KMeansConfig {
            k,
            max_iters: 50,
            seed: 7,
        }
    }

    #[test]
    fn separates_two_obvious_blobs() {
        let data = two_blobs();
        let res = kmeans(&data, &cfg(2));
        assert_eq!(res.centroids.len(), 2);
        // All even indices (blob A) share a cluster, all odd share the other.
        let a = res.assignments[0];
        let b = res.assignments[1];
        assert_ne!(a, b);
        for i in (0..data.len()).step_by(2) {
            assert_eq!(res.assignments[i], a);
        }
        for i in (1..data.len()).step_by(2) {
            assert_eq!(res.assignments[i], b);
        }
    }

    #[test]
    fn is_deterministic() {
        let data = two_blobs();
        let r1 = kmeans(&data, &cfg(4));
        let r2 = kmeans(&data, &cfg(4));
        assert_eq!(r1.assignments, r2.assignments);
        assert_eq!(r1.centroids, r2.centroids);
    }

    #[test]
    fn fewer_points_than_k_makes_each_point_a_centroid() {
        let data = vec![v(&[1.0, 0.0]), v(&[0.0, 1.0])];
        let res = kmeans(&data, &cfg(8));
        assert_eq!(res.centroids.len(), 2);
        assert_eq!(res.assignments, vec![0, 1]);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn centroids_are_unit_norm() {
        let data = two_blobs();
        let res = kmeans(&data, &cfg(3));
        for c in &res.centroids {
            assert!((c.norm() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_data_panics() {
        kmeans(&[], &cfg(2));
    }

    #[test]
    fn nearest_centroid_prefers_most_similar() {
        let cents = vec![v(&[1.0, 0.0]), v(&[0.0, 1.0])];
        assert_eq!(nearest_centroid(&v(&[0.9, 0.1]), &cents), 0);
        assert_eq!(nearest_centroid(&v(&[0.1, 0.9]), &cents), 1);
    }
}
