//! Concurrent-read correctness: the serving tier runs many worker
//! threads doing top-k searches over one `FlatIndex` shared behind an
//! `Arc`. Search is `&self` with no interior mutability, so concurrent
//! results must be bit-identical to sequential ones — this test pins
//! that contract.

use dio_embed::Vector;
use dio_vecstore::{FlatIndex, VectorIndex};
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

#[test]
fn parallel_topk_matches_sequential() {
    let index = Arc::new(FlatIndex::from_vectors(DIMS, dataset(400, 0xfeed)));
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
