//! Concurrent-read correctness: the serving tier runs many worker
//! threads doing top-k searches over one index shared behind an `Arc` —
//! a `FlatIndex`, or an `IvfIndex` over one. Search is `&self` with no
//! interior mutability, so concurrent results must be bit-identical to
//! sequential ones — this test pins that contract.

use dio_embed::Vector;
use dio_vecstore::{FlatIndex, IvfConfig, IvfIndex, VectorIndex};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

const DIMS: usize = 24;

fn random_unit(rng: &mut ChaCha8Rng, dims: usize) -> Vector {
    let v: Vec<f32> = (0..dims).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Vector(v).normalized()
}

fn dataset(n: usize, seed: u64) -> Vec<Vector> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| random_unit(&mut rng, DIMS)).collect()
}

fn flat(n: usize, seed: u64) -> FlatIndex {
    FlatIndex::from_vectors(DIMS, dataset(n, seed))
}

fn ivf(n: usize, seed: u64) -> IvfIndex {
    IvfIndex::train(DIMS, IvfConfig::default(), dataset(n, seed))
}

#[test]
fn parallel_topk_matches_sequential() {
    parallel_topk_matches_sequential_on(flat(400, 0xfeed));
    parallel_topk_matches_sequential_on(ivf(400, 0xfeed));
}

fn parallel_topk_matches_sequential_on(index: impl VectorIndex + Send + Sync + 'static) {
    let index = Arc::new(index);
    let queries = Arc::new(dataset(64, 0xbeef));
    let k = 10;

    // Sequential reference: (id, score bits) per query, in order.
    let expected: Vec<Vec<(usize, u32)>> = queries
        .iter()
        .map(|q| {
            index
                .search(q, k)
                .into_iter()
                .map(|h| (h.id, h.score.to_bits()))
                .collect()
        })
        .collect();

    // Eight threads, each running every query against the shared
    // index, interleaved with the other threads' searches.
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let index = Arc::clone(&index);
            let queries = Arc::clone(&queries);
            std::thread::spawn(move || {
                queries
                    .iter()
                    .map(|q| {
                        index
                            .search(q, k)
                            .into_iter()
                            .map(|h| (h.id, h.score.to_bits()))
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    for h in handles {
        let got = h.join().expect("searcher thread panicked");
        assert_eq!(got, expected, "concurrent top-k diverged from sequential");
    }
}

#[test]
fn search_with_stats_is_stable_across_threads() {
    search_with_stats_is_stable_across_threads_on(flat(300, 0xabba));
    search_with_stats_is_stable_across_threads_on(ivf(300, 0xabba));
}

fn search_with_stats_is_stable_across_threads_on(index: impl VectorIndex + Send + Sync + 'static) {
    let index = Arc::new(index);
    let query = Arc::new(dataset(1, 0xd00d).remove(0));
    let (ref_hits, ref_stats) = index.search_with_stats(&query, 5);

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let index = Arc::clone(&index);
            let query = Arc::clone(&query);
            std::thread::spawn(move || index.search_with_stats(&query, 5))
        })
        .collect();
    for h in handles {
        let (hits, stats) = h.join().unwrap();
        assert_eq!(hits, ref_hits);
        assert_eq!(stats.candidates_scanned, ref_stats.candidates_scanned);
    }
}
