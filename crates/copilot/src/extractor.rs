//! The context extractor (paper §3.2).
//!
//! Offline, every text sample of the domain DB is embedded and stored
//! in a vector index; online, the question is embedded and the top-k
//! most cosine-similar samples become the prompt context.

use crate::pipeline::first_sentence;
use dio_catalog::{DocSample, DomainDb};
use dio_embed::{Embedder, EmbedderConfig};
use dio_llm::PromptPiece;
use dio_vecstore::{DocIndex, FlatIndex, SearchHit, VectorIndex};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A retrieved context sample with its similarity score.
#[derive(Debug, Clone, PartialEq)]
pub struct Retrieved {
    /// The text sample.
    pub sample: DocSample,
    /// Cosine similarity to the question.
    pub score: f32,
    /// Where the sample sits in the extractor that retrieved it, which
    /// keeps its rendered context line there.
    doc: usize,
}

/// One indexed document: the sample, and its prompt context line
/// (`<<ITEM>> name: first sentence`) rendered and priced when the index
/// is built, so an ask copies the line instead of formatting it.
#[derive(Debug, Clone)]
struct Doc {
    sample: DocSample,
    line: PromptPiece,
}

impl Doc {
    fn new(sample: DocSample) -> Self {
        let line = PromptPiece::item(&sample.name, &first_sentence(&sample.text));
        Doc { sample, line }
    }
}

// A document reads as its sample, so the payload store serves every
// reader of samples; only the prompt path asks for the line.
impl std::ops::Deref for Doc {
    type Target = DocSample;
    fn deref(&self) -> &DocSample {
        &self.sample
    }
}

impl Borrow<DocSample> for Doc {
    fn borrow(&self) -> &DocSample {
        &self.sample
    }
}

/// Work accounting for one retrieval, fed into `dio-obs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetrievalStats {
    /// Candidate vectors the index scanned (the flat index scans the
    /// whole store; the random baseline scans nothing).
    pub candidates_scanned: usize,
}

/// How context is retrieved — the retrieval-quality ablation lever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetrievalMode {
    /// Exact brute-force cosine search (FAISS `IndexFlatIP`), default.
    Flat,
    /// Pseudo-random context (no semantic search) — the degenerate
    /// baseline showing retrieval is load-bearing.
    Random {
        /// Sampling seed.
        seed: u64,
    },
}

enum IndexKind {
    Flat(DocIndex<FlatIndex, Doc>),
    Random { samples: Vec<Doc>, seed: u64 },
}

/// Embedder + vector index over the domain DB's text samples.
///
/// Searches take `&self` and the index holds no interior mutability, so
/// one extractor can serve top-k queries from many threads at once
/// (typically behind an `Arc` in the serving worker pool).
pub struct ContextExtractor {
    embedder: Embedder,
    index: IndexKind,
}

impl ContextExtractor {
    /// Build from a domain DB (the "offline process"). `domain_tuned`
    /// selects the telecom-lexicon embedder; `false` uses the generic
    /// configuration (§5.3 ablation).
    pub fn build(db: &DomainDb, domain_tuned: bool) -> Self {
        Self::build_with_mode(db, domain_tuned, RetrievalMode::Flat)
    }

    /// Build with an explicit retrieval mode.
    pub fn build_with_mode(db: &DomainDb, domain_tuned: bool, mode: RetrievalMode) -> Self {
        let samples = db.text_samples();
        let config = if domain_tuned {
            EmbedderConfig::default()
        } else {
            EmbedderConfig::generic()
        };
        let texts: Vec<String> = samples.iter().map(|s| s.embedding_text()).collect();
        let samples: Vec<Doc> = samples.into_iter().map(Doc::new).collect();
        let embedder = Embedder::fit(&config, texts.iter().map(|s| s.as_str()));
        let index = match mode {
            RetrievalMode::Random { seed } => IndexKind::Random { samples, seed },
            RetrievalMode::Flat => {
                // Lazy: each embedding moves into the matrix as it is
                // made instead of the whole batch being held beside it.
                let vectors = texts.iter().map(|text| embedder.embed(text));
                let flat = FlatIndex::from_vectors(embedder.dims(), vectors);
                IndexKind::Flat(DocIndex::from_parts(flat, samples))
            }
        };
        ContextExtractor { embedder, index }
    }

    /// Number of indexed samples.
    pub fn len(&self) -> usize {
        match &self.index {
            IndexKind::Flat(i) => i.len(),
            IndexKind::Random { samples, .. } => samples.len(),
        }
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Top-k samples for a question, diversified with maximal marginal
    /// relevance (MMR).
    ///
    /// Plain cosine top-k drowns in redundancy on operator data: a
    /// question mentioning a rare failure cause matches the *same*
    /// failure counter of forty different procedures, crowding out the
    /// procedure's own attempt/success counters that the final query
    /// needs. MMR greedily picks items maximising
    /// `λ·sim(q, d) − (1−λ)·max_{s∈selected} sim(d, s)`,
    /// the standard diversification used in retrieval-augmented
    /// pipelines over FAISS-style stores.
    pub fn retrieve(&self, question: &str, k: usize) -> Vec<Retrieved> {
        self.retrieve_vec(question, None, k)
    }

    /// Like [`ContextExtractor::retrieve`], but reuse a precomputed
    /// question embedding when one is supplied — the serving layer's
    /// embedding cache hands back vectors for repeated questions so the
    /// hot path skips the tokenise+hash+IDF pass entirely. The vector
    /// must come from this extractor's [`ContextExtractor::embed_question`]
    /// (same embedder fit), or search quality is undefined.
    pub fn retrieve_vec(
        &self,
        question: &str,
        qvec: Option<&dio_embed::Vector>,
        k: usize,
    ) -> Vec<Retrieved> {
        self.retrieve_with_stats_vec(question, qvec, k).0
    }

    /// Embed a question with this extractor's fitted embedder. The
    /// serving layer calls this once per distinct (normalized) question
    /// and caches the vector for [`ContextExtractor::retrieve_vec`].
    pub fn embed_question(&self, question: &str) -> dio_embed::Vector {
        self.embedder.embed(question)
    }

    /// [`ContextExtractor::retrieve_vec`] plus work accounting: the
    /// flat index scans the whole store. The question is embedded at
    /// most once and the index searched exactly once; its hits are
    /// diversified with MMR.
    pub fn retrieve_with_stats_vec(
        &self,
        question: &str,
        qvec: Option<&dio_embed::Vector>,
        k: usize,
    ) -> (Vec<Retrieved>, RetrievalStats) {
        if k == 0 {
            return (Vec::new(), RetrievalStats::default());
        }
        match &self.index {
            IndexKind::Flat(i) => self.search_docs(i, question, qvec, k),
            IndexKind::Random { samples, seed } => (
                random_context(samples, *seed, question, k),
                RetrievalStats::default(),
            ),
        }
    }

    /// The context line of a sample this extractor retrieved, rendered
    /// when the index was built.
    ///
    /// # Panics
    ///
    /// When `hit` came from an extractor holding fewer samples.
    pub(crate) fn line(&self, hit: &Retrieved) -> &PromptPiece {
        let doc = match &self.index {
            IndexKind::Flat(i) => i.get(hit.doc),
            IndexKind::Random { samples, .. } => samples.get(hit.doc),
        };
        &doc.expect("a hit retrieved by this extractor").line
    }

    /// One search of the index: prefetch `4k` hits, let MMR pick `k` of
    /// them, and clone their samples. Every stored row is scanned. An
    /// id the payload store does not hold yields no hit.
    fn search_docs<I: VectorIndex, D: Borrow<DocSample>>(
        &self,
        index: &DocIndex<I, D>,
        question: &str,
        qvec: Option<&dio_embed::Vector>,
        k: usize,
    ) -> (Vec<Retrieved>, RetrievalStats) {
        const PREFETCH_FACTOR: usize = 4;
        let embedded;
        let q = match qvec {
            Some(q) => q,
            None => {
                embedded = self.embedder.embed(question);
                &embedded
            }
        };
        let hits = index.index().search(q, k.saturating_mul(PREFETCH_FACTOR));
        let retrieved = mmr(index.index(), hits, k)
            .into_iter()
            .filter_map(|hit| {
                Some(Retrieved {
                    sample: index.get(hit.id)?.borrow().clone(),
                    score: hit.score,
                    doc: hit.id,
                })
            })
            .collect();
        (
            retrieved,
            RetrievalStats {
                candidates_scanned: index.len(),
            },
        )
    }
}

/// A candidate on the MMR heap. The greatest is the highest value,
/// then the earliest prefetch position — the first of the best, as a
/// scan in prefetch order finds it.
struct Candidate {
    /// `λ·score − (1−λ)·max_red`, as of the picks seen.
    value: f32,
    /// Position in the prefetched hits.
    pos: usize,
    /// `f32::max` fold of its similarity to the first `seen` picks.
    max_red: f32,
    seen: usize,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.value
            .partial_cmp(&other.value)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.pos.cmp(&self.pos))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

/// Greedy MMR over prefetched `hits`, at most `k` picks in pick order:
/// each pick is the first candidate of maximal
/// `λ·score − (1−λ)·max_red`, `max_red` the `f32::max` fold of its
/// similarity to the picks so far, in pick order.
///
/// Lazily: a candidate's similarity to a pick is computed only when it
/// could change who is picked next. Each candidate carries how many
/// picks its `max_red` has folded in and sits on a max-heap by the
/// value that `max_red` gives. The value is monotone non-increasing in
/// `max_red` under IEEE rounding and `max_red` only grows, so a stale
/// value bounds the fresh one from above. The leader is popped and the
/// picks it has not seen are folded in, in pick order, one at a time
/// and only while it still leads; once it has seen every pick and
/// still leads, no other candidate's fresh value can come before it —
/// it is the eager loop's pick. The fold is the same `f32::max` over
/// the same values in the same order, only deferred.
fn mmr(index: &impl VectorIndex, hits: Vec<SearchHit>, k: usize) -> Vec<SearchHit> {
    const LAMBDA: f32 = 0.75;
    let value = |hit: &SearchHit, max_red: f32| LAMBDA * hit.score - (1.0 - LAMBDA) * max_red;
    let mut heap: BinaryHeap<Candidate> = hits
        .iter()
        .enumerate()
        .map(|(pos, hit)| Candidate {
            value: value(hit, 0.0),
            pos,
            max_red: 0.0,
            seen: 0,
        })
        .collect();
    let mut picked: Vec<usize> = Vec::with_capacity(k.min(hits.len()));
    while picked.len() < k {
        let Some(mut leader) = heap.pop() else { break };
        let leads = |c: &Candidate| heap.peek().map_or(true, |next| c > next);
        while leader.seen < picked.len() && leads(&leader) {
            let (hit, pick) = (&hits[leader.pos], &hits[picked[leader.seen]]);
            // A row the index does not hold is redundant with nothing.
            let similarity = index.similarity(hit.id, pick.id).unwrap_or(0.0);
            leader.max_red = leader.max_red.max(similarity);
            leader.seen += 1;
            leader.value = value(hit, leader.max_red);
        }
        if leader.seen == picked.len() && leads(&leader) {
            picked.push(leader.pos);
        } else {
            heap.push(leader);
        }
    }
    picked.into_iter().map(|pos| hits[pos].clone()).collect()
}

/// Degenerate random mode: deterministic pseudo-random picks.
fn random_context(samples: &[Doc], seed: u64, question: &str, k: usize) -> Vec<Retrieved> {
    if samples.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(k.min(samples.len()));
    let mut h = seed;
    for b in question.as_bytes() {
        h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut picked = std::collections::HashSet::new();
    while out.len() < k.min(samples.len()) {
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 29;
        let idx = (h % samples.len() as u64) as usize;
        if picked.insert(idx) {
            out.push(Retrieved {
                sample: samples[idx].sample.clone(),
                score: 0.0,
                doc: idx,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_catalog::{generate_catalog, CatalogConfig};
    use dio_embed::Vector;
    use proptest::prelude::*;

    fn db() -> DomainDb {
        DomainDb::from_catalog(generate_catalog(&CatalogConfig {
            slice_variants: false,
            sbi_counters: false,
            ..CatalogConfig::default()
        }))
    }

    #[test]
    fn indexes_every_sample() {
        let d = db();
        let ex = ContextExtractor::build(&d, true);
        assert_eq!(ex.len(), d.text_samples().len());
        assert!(!ex.is_empty());
    }

    #[test]
    fn retrieves_topically_relevant_samples() {
        let d = db();
        let ex = ContextExtractor::build(&d, true);
        let hits = ex.retrieve(
            "How many initial registration attempts did the AMF handle?",
            29,
        );
        assert_eq!(hits.len(), 29);
        assert!(
            hits.iter()
                .any(|h| h.sample.name == "amfcc_n1_initial_registration_attempt"),
            "expected the attempt counter in top-29, got: {:?}",
            hits.iter().map(|h| &h.sample.name).collect::<Vec<_>>()
        );
        // The first MMR pick is the plain nearest neighbour.
        let top = hits.iter().map(|h| h.score).fold(f32::MIN, f32::max);
        assert_eq!(hits[0].score, top);
    }

    #[test]
    fn failure_question_retrieves_the_right_cause_counter() {
        // A failure-cause question matches dozens of failure counters
        // across procedures; the question's own procedure+cause counter
        // must rank in the top-29 (the code generator reconstructs the
        // attempt denominator from it by naming convention).
        let catalog = generate_catalog(&CatalogConfig::default());
        let group = catalog
            .groups
            .iter()
            .find(|g| g.procedure == "initial_registration")
            .unwrap();
        let (cause, fname) = group.failures[0].clone();
        let d = DomainDb::from_catalog(catalog);
        let ex = ContextExtractor::build(&d, true);
        let q = format!(
            "What fraction of initial registration procedures failed due to {}?",
            cause.replace('_', " ")
        );
        let hits = ex.retrieve(&q, 29);
        assert!(
            hits.iter().any(|h| h.sample.name == fname),
            "cause counter {fname} missing from top-29 for {q:?}: {:?}",
            hits.iter().map(|h| &h.sample.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn mmr_diversifies_across_procedures() {
        // Plain top-k returns near-duplicates (the same procedure's
        // many failure causes); MMR must cover more distinct
        // procedures in the same budget.
        let d = DomainDb::from_catalog(generate_catalog(&CatalogConfig::default()));
        let ex = ContextExtractor::build(&d, true);
        let hits = ex.retrieve(
            "What fraction of initial registration procedures failed due to congestion?",
            29,
        );
        let procedures: std::collections::HashSet<&str> = hits
            .iter()
            .map(|h| {
                let name = h.sample.name.as_str();
                name.split("_failure_").next().unwrap_or(name)
            })
            .collect();
        assert!(
            procedures.len() >= 4,
            "MMR top-29 covers too few procedures: {procedures:?}"
        );
    }

    #[test]
    fn retrieval_finds_function_definitions_too() {
        let d = db();
        let ex = ContextExtractor::build(&d, true);
        let hits = ex.retrieve(
            "expert function to compute the percentage success rate of a procedure",
            29,
        );
        assert!(
            hits.iter().any(|h| h.sample.name.starts_with("function:")),
            "expected a function definition in context"
        );
    }

    #[test]
    fn retrieval_stats_reflect_index_work() {
        let d = db();
        let n = d.text_samples().len();
        let flat = ContextExtractor::build(&d, true);
        let (hits, stats) = flat.retrieve_with_stats_vec("paging attempts", None, 10);
        assert_eq!(hits, flat.retrieve("paging attempts", 10));
        assert_eq!(stats.candidates_scanned, n);
        let (_, none_stats) = flat.retrieve_with_stats_vec("q", None, 0);
        assert_eq!(none_stats.candidates_scanned, 0);

        let random = ContextExtractor::build_with_mode(&d, true, RetrievalMode::Random { seed: 7 });
        let (_, random_stats) = random.retrieve_with_stats_vec("paging attempts", None, 10);
        assert_eq!(random_stats.candidates_scanned, 0);
    }

    /// The O(k²·prefetch) MMR loop `retrieve_vec` ran before picks
    /// became incremental, kept verbatim as the reference: every round
    /// recomputes each candidate's similarity to every pick so far.
    fn reference_mmr(flat: &FlatIndex, prefetch: &[SearchHit], k: usize) -> Vec<SearchHit> {
        const LAMBDA: f32 = 0.75;
        let get_vector = |id: usize| flat.row(id);
        let mut remaining: Vec<(usize, f32)> = prefetch.iter().map(|h| (h.id, h.score)).collect();
        let mut selected: Vec<(usize, f32)> = Vec::with_capacity(k.min(prefetch.len()));
        while selected.len() < k && !remaining.is_empty() {
            let mut best_pos = 0;
            let mut best_val = f32::NEG_INFINITY;
            for (pos, &(id, qsim)) in remaining.iter().enumerate() {
                let max_red = selected
                    .iter()
                    .map(|&(sid, _)| {
                        dio_embed::cosine(
                            get_vector(id).expect("flat"),
                            get_vector(sid).expect("flat"),
                        )
                    })
                    .fold(0.0f32, f32::max);
                let val = LAMBDA * qsim - (1.0 - LAMBDA) * max_red;
                if val > best_val {
                    best_val = val;
                    best_pos = pos;
                }
            }
            selected.push(remaining.remove(best_pos));
        }
        selected
            .into_iter()
            .map(|(id, score)| SearchHit { id, score })
            .collect()
    }

    fn id_and_bits(hits: &[SearchHit]) -> Vec<(usize, u32)> {
        hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
    }

    #[test]
    fn incremental_mmr_matches_the_reference_on_all_benchmark_questions() {
        // `dio_bench::BENCHMARK_SEED`: the 200 questions every table
        // and `perf/` evaluate with, on the full default catalog.
        const BENCHMARK_SEED: u64 = 0xbe9c_4a11;
        const K: usize = 29;
        let world = dio_benchmark::OperatorWorld::build(dio_benchmark::WorldConfig::default());
        let questions = dio_benchmark::generate_benchmark(&world, 200, BENCHMARK_SEED);
        assert_eq!(questions.len(), 200);
        let ex = ContextExtractor::build(&world.domain_db(), true);
        let IndexKind::Flat(docs) = &ex.index else {
            panic!("default build is flat");
        };
        for q in &questions {
            let qvec = ex.embed_question(&q.text);
            let prefetch = docs.index().search(&qvec, 4 * K);
            let want: Vec<(&str, u32)> = reference_mmr(docs.index(), &prefetch, K)
                .iter()
                .map(|h| (docs.get(h.id).unwrap().name.as_str(), h.score.to_bits()))
                .collect();
            // The production path: names, order and score bits.
            let retrieved = ex.retrieve_vec(&q.text, Some(&qvec), K);
            let got: Vec<(&str, u32)> = retrieved
                .iter()
                .map(|r| (r.sample.name.as_str(), r.score.to_bits()))
                .collect();
            assert_eq!(got, want, "retrieval diverged for {:?}", q.text);
        }
    }

    proptest! {
        /// Random corpora with an exact duplicate and a zero row, and
        /// every regime of `k`: above the corpus size, 1, and prefetch
        /// lists shorter than `k`.
        #[test]
        fn incremental_mmr_matches_the_reference_on_random_corpora(
            rows in prop::collection::vec(prop::collection::vec(-1.0f32..1.0, 9..10), 2..20),
            query in prop::collection::vec(-1.0f32..1.0, 9..10),
            dup in 0usize..20,
            zero in 0usize..20,
            k in prop::sample::select(vec![1usize, 2, 5, 19, 20, 64]),
            prefetch in 1usize..30,
        ) {
            let mut vectors: Vec<Vector> = rows.into_iter().map(Vector).collect();
            vectors.push(vectors[dup % vectors.len()].clone());
            let zero = zero % vectors.len();
            vectors[zero] = Vector::zeros(9);
            let flat = FlatIndex::from_vectors(9, vectors);
            let hits = flat.search(&Vector(query), prefetch);
            let want = reference_mmr(&flat, &hits, k);
            prop_assert_eq!(want.len(), k.min(hits.len()));
            prop_assert_eq!(id_and_bits(&mmr(&flat, hits, k)), id_and_bits(&want));
        }
    }

    proptest! {
        /// Ties everywhere: question scores from four values and rows
        /// from four directions, so values and redundancies coincide
        /// exactly and every pick is decided by prefetch position.
        #[test]
        fn lazy_mmr_breaks_ties_as_the_reference_does(
            rows in prop::collection::vec(0usize..4, 2..40),
            scores in prop::collection::vec(prop::sample::select(vec![0.25f32, 0.5, 0.75, 1.0]), 40..41),
            k in prop::sample::select(vec![1usize, 2, 5, 29, 64]),
        ) {
            const DIRECTIONS: [[f32; 3]; 4] =
                [[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.0, 0.0], [0.6, 0.0, 0.8]];
            let flat = FlatIndex::from_vectors(3, rows.iter().map(|&r| Vector(DIRECTIONS[r].to_vec())));
            let hits: Vec<SearchHit> = (0..flat.len()).map(|id| SearchHit { id, score: scores[id] }).collect();
            let want = reference_mmr(&flat, &hits, k);
            prop_assert_eq!(id_and_bits(&mmr(&flat, hits, k)), id_and_bits(&want));
        }
    }

    /// Counts the `similarity` calls MMR makes of the index it wraps.
    struct Counting {
        flat: FlatIndex,
        similarities: std::cell::Cell<usize>,
    }

    impl VectorIndex for Counting {
        fn add(&mut self, vector: Vector) -> usize {
            self.flat.add(vector)
        }
        fn search(&self, query: &Vector, k: usize) -> Vec<SearchHit> {
            self.flat.search(query, k)
        }
        fn similarity(&self, a: usize, b: usize) -> Option<f32> {
            self.similarities.set(self.similarities.get() + 1);
            self.flat.similarity(a, b)
        }
        fn len(&self) -> usize {
            self.flat.len()
        }
        fn dims(&self) -> usize {
            self.flat.dims()
        }
    }

    #[test]
    fn lazy_mmr_computes_a_third_of_the_similarities_on_the_benchmark_questions() {
        // Picking 29 of 116 eagerly folds every pick into every
        // candidate left: 115 + 114 + … + 87 = 2 929 similarities an
        // ask. Lazily 199 025 over the 200 questions (995 an ask), a
        // count that repeats: nothing in it depends on time or on
        // hashing order.
        const BENCHMARK_SEED: u64 = 0xbe9c_4a11;
        const K: usize = 29;
        let world = dio_benchmark::OperatorWorld::build(dio_benchmark::WorldConfig::default());
        let questions = dio_benchmark::generate_benchmark(&world, 200, BENCHMARK_SEED);
        let ex = ContextExtractor::build(&world.domain_db(), true);
        let IndexKind::Flat(docs) = &ex.index else {
            panic!("default build is flat");
        };
        let counting = Counting {
            flat: docs.index().clone(),
            similarities: std::cell::Cell::new(0),
        };
        for q in &questions {
            let prefetch = counting.search(&ex.embed_question(&q.text), 4 * K);
            let want = reference_mmr(docs.index(), &prefetch, K);
            let got = mmr(&counting, prefetch, K);
            assert_eq!(id_and_bits(&got), id_and_bits(&want), "{:?}", q.text);
        }
        let per_ask = counting.similarities.get() / questions.len();
        assert!(
            per_ask <= 1200,
            "{per_ask} similarities per ask, 2 929 eager"
        );
    }

    #[test]
    fn a_hit_the_index_does_not_hold_is_dropped_not_a_panic() {
        let flat = FlatIndex::from_vectors(2, vec![Vector(vec![1.0, 0.0])]);
        let hits = vec![
            SearchHit { id: 0, score: 0.9 },
            SearchHit { id: 7, score: 0.8 },
        ];
        assert_eq!(
            id_and_bits(&mmr(&flat, hits.clone(), 2)),
            id_and_bits(&hits)
        );
        /// Answers every search with the same hits, held or not.
        struct Canned(FlatIndex, Vec<SearchHit>);
        impl VectorIndex for Canned {
            fn add(&mut self, vector: Vector) -> usize {
                self.0.add(vector)
            }
            fn search(&self, _: &Vector, _: usize) -> Vec<SearchHit> {
                self.1.clone()
            }
            fn similarity(&self, a: usize, b: usize) -> Option<f32> {
                self.0.similarity(a, b)
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn dims(&self) -> usize {
                self.0.dims()
            }
        }
        let only = DocSample {
            name: "only".into(),
            text: String::new(),
        };
        let ex = ContextExtractor {
            embedder: Embedder::fit(&EmbedderConfig::generic(), ["only"]),
            index: IndexKind::Random {
                samples: Vec::new(),
                seed: 0,
            },
        };
        let docs = DocIndex::from_parts(Canned(flat, hits), vec![only]);
        let qvec = Vector(vec![1.0, 0.0]);
        let (retrieved, _) = ex.search_docs(&docs, "q", Some(&qvec), 2);
        assert_eq!(retrieved.len(), 1);
        assert_eq!(retrieved[0].sample.name, "only");
    }

    #[test]
    fn an_empty_corpus_builds_and_retrieves_nothing() {
        let empty =
            DomainDb::from_json(r#"{"metrics":{},"functions":{},"groups":[],"notes":[]}"#).unwrap();
        assert!(empty.text_samples().is_empty());
        let ex = ContextExtractor::build(&empty, true);
        assert!(ex.is_empty());
        assert!(ex.retrieve("paging attempts", 5).is_empty());
    }

    #[test]
    fn retrieval_is_deterministic() {
        let d = db();
        let ex = ContextExtractor::build(&d, true);
        let a = ex.retrieve("paging attempts", 10);
        let b = ex.retrieve("paging attempts", 10);
        assert_eq!(a, b);
    }
}
