//! The metric store: every series, indexed by metric name.

use crate::labels::{LabelMap, Labels};
use crate::matchers::{all_match, Matcher};
use crate::page_cache::PageCache;
use crate::sample::Sample;
use crate::series::{AppendError, Series};
use std::collections::HashMap;
use std::sync::Arc;

/// In-memory store of all series.
///
/// Series are indexed by metric name for fast selection (the common case
/// is a selector with an exact `__name__`), with a full scan fallback
/// for name-pattern selectors. Sealed chunks decode through a page
/// cache shared across clones of the store, so the interpreter oracle
/// and the vectorized engine warm it for each other.
///
/// Clones share their series copy-on-write: `clone()` copies two `Arc`
/// handles, and a store whose series are shared splits off its own
/// copy on its first write (`ensure_series` of a new label set,
/// `append`, `adopt_series`). Value semantics are those of a deep copy,
/// so every clone costs no telemetry until one side writes.
#[derive(Debug, Clone)]
pub struct MetricStore {
    data: Arc<StoreData>,
    page_cache: Arc<PageCache>,
}

/// What clones of a store share until one of them writes. A split
/// clones the series with their chunks' ids, so the page cache keeps
/// serving both sides.
#[derive(Debug, Clone, Default)]
struct StoreData {
    series: Vec<Series>,
    by_name: HashMap<String, Vec<usize>>,
    /// Label set → series id. A lookup takes the signature the set
    /// carries as its hash and compares pointer-first, so a caller
    /// holding a clone of the stored set touches no string; two sets
    /// that share a signature are told apart by the map's own `Eq`
    /// probe.
    by_labels: LabelMap<usize>,
}

impl Default for MetricStore {
    fn default() -> Self {
        MetricStore {
            data: Arc::default(),
            page_cache: Arc::new(PageCache::new()),
        }
    }
}

impl MetricStore {
    /// An empty store.
    pub fn new() -> Self {
        MetricStore::default()
    }

    /// The shared decoded-chunk cache.
    pub fn page_cache(&self) -> &PageCache {
        &self.page_cache
    }

    /// Total number of series.
    pub fn series_count(&self) -> usize {
        self.data.series.len()
    }

    /// Total number of samples across all series.
    pub fn sample_count(&self) -> usize {
        self.data.series.iter().map(|s| s.len()).sum()
    }

    /// Compressed bytes across all sealed chunks.
    pub fn compressed_bytes(&self) -> usize {
        self.data.series.iter().map(|s| s.compressed_bytes()).sum()
    }

    /// Distinct metric names, sorted.
    pub fn metric_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.data.by_name.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names
    }

    /// True when a metric with this exact name has at least one series.
    pub fn has_metric(&self, name: &str) -> bool {
        self.data.by_name.contains_key(name)
    }

    /// Get or create the series with exactly these labels, returning its
    /// internal id. Only creating one is a write.
    pub fn ensure_series(&mut self, labels: Labels) -> usize {
        if let Some(&id) = self.data.by_labels.get(&labels) {
            return id;
        }
        let data = Arc::make_mut(&mut self.data);
        let id = data.series.len();
        if let Some(name) = labels.name() {
            match data.by_name.get_mut(name) {
                Some(ids) => ids.push(id),
                None => {
                    data.by_name.insert(name.to_string(), vec![id]);
                }
            }
        }
        data.by_labels.insert(labels.clone(), id);
        data.series.push(Series::new(labels));
        id
    }

    /// Append one sample to the series with these labels (creating it if
    /// needed).
    pub fn append(&mut self, labels: Labels, sample: Sample) -> Result<(), AppendError> {
        let id = self.ensure_series(labels);
        self.append_at(id, sample)
    }

    /// Append one sample to the series with internal id `id`.
    ///
    /// # Panics
    /// When `id` did not come from this store.
    pub(crate) fn append_at(&mut self, id: usize, sample: Sample) -> Result<(), AppendError> {
        Arc::make_mut(&mut self.data).series[id].append(sample)
    }

    /// Merge a whole series in. When the store has no series with these
    /// labels the incoming series is adopted wholesale — its sealed
    /// chunks move without a decode (how cluster shards ship data).
    /// Otherwise the incoming samples are decoded and appended
    /// individually; out-of-order duplicates are skipped and counted.
    /// Returns the number of samples skipped.
    pub fn adopt_series(&mut self, incoming: Series) -> usize {
        let id = self.ensure_series(incoming.labels().clone());
        let target = &mut Arc::make_mut(&mut self.data).series[id];
        if target.is_empty() {
            *target = incoming;
            return 0;
        }
        let mut skipped = 0;
        for sample in incoming.samples() {
            if target.append(sample).is_err() {
                skipped += 1;
            }
        }
        skipped
    }

    /// All series whose labels satisfy every matcher.
    ///
    /// An `Eq` matcher on `__name__` narrows the scan to that name's
    /// postings list.
    pub fn select(&self, matchers: &[Matcher]) -> Vec<&Series> {
        self.select_indices(matchers)
            .into_iter()
            .map(|i| &self.data.series[i])
            .collect()
    }

    /// Ids of series whose labels satisfy every matcher, in storage
    /// order. The vectorized executor memoises on these ids.
    pub fn select_indices(&self, matchers: &[Matcher]) -> Vec<usize> {
        use crate::matchers::MatchOp;
        let name_eq = matchers
            .iter()
            .find(|m| m.name == crate::labels::NAME_LABEL && m.op == MatchOp::Eq);
        let data = &*self.data;
        let matching = |&i: &usize| all_match(matchers, data.series[i].labels());
        match name_eq {
            Some(m) => data.by_name.get(&m.value).map_or_else(Vec::new, |ids| {
                ids.iter().copied().filter(matching).collect()
            }),
            None => (0..data.series.len()).filter(matching).collect(),
        }
    }

    /// The series with internal id `id`.
    ///
    /// # Panics
    /// When `id` did not come from this store.
    pub fn series_at(&self, id: usize) -> &Series {
        &self.data.series[id]
    }

    /// All series for a metric name.
    pub fn series_for(&self, name: &str) -> Vec<&Series> {
        let data = &*self.data;
        data.by_name
            .get(name)
            .map(|ids| ids.iter().map(|&i| &data.series[i]).collect())
            .unwrap_or_default()
    }

    /// Iterate all series.
    pub fn iter(&self) -> impl Iterator<Item = &Series> {
        self.data.series.iter()
    }

    /// Earliest sample timestamp in the store.
    pub fn min_timestamp(&self) -> Option<i64> {
        self.data
            .series
            .iter()
            .filter_map(|s| s.first_timestamp())
            .min()
    }

    /// Latest sample timestamp in the store.
    pub fn max_timestamp(&self) -> Option<i64> {
        self.data
            .series
            .iter()
            .filter_map(|s| s.last_timestamp())
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::NAME_LABEL;

    fn store() -> MetricStore {
        let mut st = MetricStore::new();
        for (name, inst, t, v) in [
            ("auth_req", "amf-0", 1000i64, 1.0),
            ("auth_req", "amf-0", 2000, 2.0),
            ("auth_req", "amf-1", 1000, 5.0),
            ("pdu_est", "smf-0", 1000, 7.0),
        ] {
            st.append(
                Labels::from_pairs([(NAME_LABEL, name), ("instance", inst)]),
                Sample::new(t, v),
            )
            .unwrap();
        }
        st
    }

    #[test]
    fn counts_series_and_samples() {
        let st = store();
        assert_eq!(st.series_count(), 3);
        assert_eq!(st.sample_count(), 4);
    }

    #[test]
    fn metric_names_sorted() {
        assert_eq!(store().metric_names(), vec!["auth_req", "pdu_est"]);
    }

    #[test]
    fn select_by_exact_name() {
        let st = store();
        let hits = st.select(&[Matcher::eq(NAME_LABEL, "auth_req")]);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn select_with_additional_matcher() {
        let st = store();
        let hits = st.select(&[
            Matcher::eq(NAME_LABEL, "auth_req"),
            Matcher::eq("instance", "amf-1"),
        ]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].samples()[0].value, 5.0);
    }

    #[test]
    fn select_by_name_pattern_scans_all() {
        let st = store();
        let hits = st.select(&[Matcher::re(NAME_LABEL, ".*_req")]);
        assert_eq!(hits.len(), 2);
        let hits = st.select(&[Matcher::re(NAME_LABEL, "auth_req|pdu_est")]);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn select_unknown_name_is_empty() {
        assert!(store()
            .select(&[Matcher::eq(NAME_LABEL, "nope")])
            .is_empty());
    }

    #[test]
    fn ensure_series_is_idempotent() {
        let mut st = MetricStore::new();
        let l = Labels::name_only("x");
        let a = st.ensure_series(l.clone());
        let b = st.ensure_series(l);
        assert_eq!(a, b);
        assert_eq!(st.series_count(), 1);
    }

    #[test]
    fn signature_collisions_probe_instead_of_aliasing() {
        // Two distinct label sets forced onto ONE signature. The index
        // once kept a single id per signature, so the second
        // `ensure_series` overwrote the first and a third call with the
        // first label set minted a duplicate series and split its
        // samples across two ids. The label-keyed map must tell them
        // apart by content.
        let mut st = MetricStore::new();
        const SIG: u64 = 0xDEAD_BEEF;
        let forced = |inst: &str| {
            Labels::from_pairs([(NAME_LABEL, "m"), ("instance", inst)]).forced_signature(SIG)
        };
        let (a, b) = (forced("a"), forced("b"));
        assert_eq!(a.signature(), b.signature());
        let id_a = st.ensure_series(a.clone());
        let id_b = st.ensure_series(b.clone());
        assert_ne!(id_a, id_b, "colliding labels must not alias one series");
        // Re-resolving either label set — the stored allocation or an
        // equal one made elsewhere — finds its original id: no
        // duplicate series minted, no samples split.
        assert_eq!(st.ensure_series(a), id_a);
        assert_eq!(st.ensure_series(b), id_b);
        assert_eq!(st.ensure_series(forced("a")), id_a);
        assert_eq!(st.ensure_series(forced("b")), id_b);
        assert_eq!(st.series_count(), 2);
        // A third distinct label set on the same signature still probes.
        let id_c = st.ensure_series(forced("c"));
        assert_eq!(st.ensure_series(forced("c")), id_c);
        assert_eq!(st.series_count(), 3);
    }

    #[test]
    fn append_finds_the_series_by_content_not_allocation() {
        let mut st = MetricStore::new();
        let labels = || Labels::from_pairs([(NAME_LABEL, "m"), ("instance", "a")]);
        let (first, second) = (labels(), labels());
        assert_ne!(first.ptr_id(), second.ptr_id());
        st.append(first.clone(), Sample::new(1_000, 1.0)).unwrap();
        st.append(second, Sample::new(2_000, 2.0)).unwrap();
        st.append(first, Sample::new(3_000, 3.0)).unwrap();
        assert_eq!(st.series_count(), 1);
        assert_eq!(st.series_for("m")[0].len(), 3);
    }

    #[test]
    fn append_routes_to_same_series() {
        let st = store();
        let s = st.series_for("auth_req");
        let amf0 = s
            .iter()
            .find(|s| s.labels().get("instance") == Some("amf-0"))
            .unwrap();
        assert_eq!(amf0.len(), 2);
    }

    #[test]
    fn min_max_timestamps() {
        let st = store();
        assert_eq!(st.min_timestamp(), Some(1000));
        assert_eq!(st.max_timestamp(), Some(2000));
    }

    #[test]
    fn adopt_series_moves_chunks_or_merges() {
        use crate::chunk::CHUNK_SIZE;
        let mut src = Series::new(Labels::name_only("adopted"));
        for i in 0..(CHUNK_SIZE + 3) as i64 {
            src.append(Sample::new(1_000 + i * 100, i as f64)).unwrap();
        }
        let chunk_id = src.chunks()[0].id();
        let mut st = MetricStore::new();
        // Fresh adoption: the sealed chunk moves, not its samples.
        assert_eq!(st.adopt_series(src.clone()), 0);
        let got = &st.series_for("adopted")[0];
        assert_eq!(got.chunks()[0].id(), chunk_id);
        assert_eq!(got.len(), CHUNK_SIZE + 3);
        // Re-adopting the same series: every sample is a duplicate.
        assert_eq!(st.adopt_series(src.clone()), CHUNK_SIZE + 3);
        // Adopting newer samples into an existing series appends them.
        let mut newer = Series::new(Labels::name_only("adopted"));
        let last = src.last_timestamp().unwrap();
        newer.append(Sample::new(last + 1, 42.0)).unwrap();
        assert_eq!(st.adopt_series(newer), 0);
        assert_eq!(st.series_for("adopted")[0].last_timestamp(), Some(last + 1));
    }

    /// Everything a reader sees of a store: counts, every series'
    /// samples, and two selections (postings list and full scan).
    fn observe(st: &MetricStore) -> (usize, usize, Vec<Vec<Sample>>, Vec<Vec<Labels>>) {
        let selections = [
            vec![Matcher::eq(NAME_LABEL, "auth_req")],
            vec![Matcher::re(NAME_LABEL, ".+")],
        ];
        (
            st.series_count(),
            st.sample_count(),
            st.iter().map(Series::samples).collect(),
            selections
                .iter()
                .map(|m| st.select(m).iter().map(|s| s.labels().clone()).collect())
                .collect(),
        )
    }

    fn aliases(a: &MetricStore, b: &MetricStore) -> bool {
        std::ptr::eq(a.series_at(0), b.series_at(0))
    }

    #[test]
    fn clones_share_their_series() {
        let a = store();
        let b = a.clone();
        for id in 0..a.series_count() {
            assert!(
                std::ptr::eq(a.series_at(id), b.series_at(id)),
                "series {id}"
            );
        }
        // Resolving a label set that exists is a read: still shared.
        let mut c = a.clone();
        c.ensure_series(Labels::from_pairs([
            (NAME_LABEL, "pdu_est"),
            ("instance", "smf-0"),
        ]));
        assert!(aliases(&a, &c));
    }

    #[test]
    fn a_write_splits_the_writer_off_and_leaves_the_other_side_unchanged() {
        type Write = fn(&mut MetricStore);
        let writes: [(&str, Write); 3] = [
            ("append", |st| {
                let labels = Labels::from_pairs([(NAME_LABEL, "auth_req"), ("instance", "amf-0")]);
                st.append(labels, Sample::new(9_000, 9.0)).unwrap();
            }),
            ("ensure_series", |st| {
                st.ensure_series(Labels::name_only("fresh"));
            }),
            ("adopt_series", |st| {
                let mut series = Series::new(Labels::name_only("auth_req"));
                series.append(Sample::new(1_000, 3.0)).unwrap();
                assert_eq!(st.adopt_series(series), 0);
            }),
        ];
        for (what, write) in writes {
            for clone_writes in [false, true] {
                let original = store();
                let clone = original.clone();
                let (mut writer, reader) = if clone_writes {
                    (clone, original)
                } else {
                    (original, clone)
                };
                let before = observe(&reader);
                assert_eq!(observe(&writer), before);
                write(&mut writer);
                assert_eq!(observe(&reader), before, "{what}: reader changed");
                assert_ne!(observe(&writer), before, "{what}: writer lost its write");
                assert!(!aliases(&writer, &reader), "{what}: still aliased");
            }
        }
    }

    #[test]
    fn a_split_keeps_page_cache_hits() {
        use crate::chunk::CHUNK_SIZE;
        let labels = Labels::name_only("sealed");
        let mut a = MetricStore::new();
        for i in 0..=CHUNK_SIZE as i64 {
            a.append(labels.clone(), Sample::new(1_000 + i, i as f64))
                .unwrap();
        }
        let mut b = a.clone();
        // Warm the sealed chunk through one side, then split the other.
        let warm = a.series_at(0).cols(a.page_cache());
        b.append(labels, Sample::new(1_000_000, 0.0)).unwrap();
        assert!(!aliases(&a, &b));
        let before = b.page_cache().stats();
        let cols = b.series_at(0).cols(b.page_cache());
        let after = b.page_cache().stats();
        assert_eq!((after.hits - before.hits, after.misses), (1, before.misses));
        assert_eq!(cols.ts[..warm.ts.len()], warm.ts[..]);
    }

    #[test]
    fn empty_store() {
        let st = MetricStore::new();
        assert_eq!(st.series_count(), 0);
        assert_eq!(st.min_timestamp(), None);
        assert!(st.select(&[]).is_empty());
    }
}
