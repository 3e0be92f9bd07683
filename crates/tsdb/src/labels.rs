//! Label sets identifying time series.

use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The reserved label carrying the metric name, as in Prometheus.
pub const NAME_LABEL: &str = "__name__";

/// An immutable, sorted set of `name=value` label pairs.
///
/// Invariants: names are unique and pairs are kept sorted by name, so
/// equality, hashing, and display are canonical. The pairs live behind
/// an [`Arc`], so cloning — which query engines do once per series per
/// evaluation step — is a reference-count bump, not a deep copy of
/// every string. Comparison, `Debug`, `Display` and serde see the pairs
/// (equality pointer-first); hashing feeds the [`Labels::signature`]
/// the allocation was built with, so label-keyed maps read a set's
/// strings once however often it is cloned and looked up.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels(Arc<Shared>);

/// Field order is comparison order: the derives reach `signature` only
/// between equal `pairs`, where it is equal too.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Shared {
    pairs: Vec<(String, String)>,
    /// Content hash of `pairs`, computed when the set is built: a pure
    /// function of them, so clones on any thread agree and sets built
    /// apart from equal pairs carry equal signatures.
    signature: u64,
}

impl Default for Labels {
    fn default() -> Self {
        Labels::empty()
    }
}

impl Hash for Labels {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.signature);
    }
}

impl fmt::Debug for Labels {
    /// What the derive printed when the pairs were the only field: both
    /// query engines' results are compared by their `{:?}` renderings,
    /// which must keep showing the pairs and nothing else.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Labels").field(&self.0.pairs).finish()
    }
}

impl Serialize for Labels {
    fn to_value(&self) -> serde::Value {
        self.0.pairs.to_value()
    }
}

impl<'de> Deserialize<'de> for Labels {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let pairs = <Vec<(String, String)> as Deserialize>::from_value(value)?;
        Labels::from_sorted_pairs(pairs)
            .ok_or_else(|| serde::Error::msg("label names must be sorted and unique"))
    }
}

impl Labels {
    fn new(pairs: Vec<(String, String)>) -> Self {
        let mut h = DefaultHasher::new();
        pairs.hash(&mut h);
        let signature = h.finish();
        Labels(Arc::new(Shared { pairs, signature }))
    }

    /// Empty label set.
    pub fn empty() -> Self {
        Labels::new(Vec::new())
    }

    /// Build from pairs; later duplicates overwrite earlier ones.
    pub fn from_pairs<I, S1, S2>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S1, S2)>,
        S1: Into<String>,
        S2: Into<String>,
    {
        let mut pairs: Vec<(String, String)> = pairs
            .into_iter()
            .map(|(k, v)| (k.into(), v.into()))
            .collect();
        // Latest first, then a stable sort: the first of each run of
        // equal names is the last one written, and `dedup_by` keeps it.
        pairs.reverse();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.dedup_by(|a, b| a.0 == b.0);
        Labels::new(pairs)
    }

    /// Wrap pairs that are already in canonical order, checking that
    /// they are: `None` unless names are strictly increasing. The way
    /// in for pairs decoded from bytes (WAL records, snapshots), where
    /// silently reordering or dropping a duplicate would be a guess.
    pub fn from_sorted_pairs(pairs: Vec<(String, String)>) -> Option<Self> {
        pairs
            .windows(2)
            .all(|w| w[0].0 < w[1].0)
            .then(|| Labels::new(pairs))
    }

    /// A label set containing only the metric name.
    pub fn name_only(name: &str) -> Self {
        Labels::new(vec![(NAME_LABEL.to_string(), name.to_string())])
    }

    /// Return a copy with `name=value` set (replacing any existing value).
    pub fn with(&self, name: impl Into<String>, value: impl Into<String>) -> Self {
        let (name, value) = (name.into(), value.into());
        let mut pairs = self.0.pairs.clone();
        match pairs.binary_search_by(|(n, _)| n.as_str().cmp(name.as_str())) {
            Ok(i) => pairs[i].1 = value,
            Err(i) => pairs.insert(i, (name, value)),
        }
        Labels::new(pairs)
    }

    /// The pairs whose name passes `keep`, as a new set.
    fn filtered(&self, keep: impl Fn(&str) -> bool) -> Self {
        Labels::new(
            self.0.pairs
                .iter()
                .filter(|(n, _)| keep(n))
                .cloned()
                .collect(),
        )
    }

    /// Return a copy with `name` removed (no-op when absent).
    pub fn without(&self, name: &str) -> Self {
        self.filtered(|n| n != name)
    }

    /// Value of a label, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        let pairs = &self.0.pairs;
        pairs
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| pairs[i].1.as_str())
    }

    /// The metric name (`__name__`), if present.
    pub fn name(&self) -> Option<&str> {
        self.get(NAME_LABEL)
    }

    /// Copy without the metric name — the identity used for vector
    /// matching in PromQL binary operations.
    pub fn drop_name(&self) -> Self {
        self.without(NAME_LABEL)
    }

    /// Keep only the listed label names (always drops `__name__` unless
    /// listed) — PromQL `by (…)` semantics.
    pub fn keep_only(&self, names: &[&str]) -> Self {
        self.filtered(|n| names.contains(&n))
    }

    /// Drop the listed label names and `__name__` — PromQL
    /// `without (…)` semantics.
    pub fn drop_listed_and_name(&self, names: &[&str]) -> Self {
        self.filtered(|n| n != NAME_LABEL && !names.contains(&n))
    }

    /// Iterate `(name, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.pairs.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.0.pairs.len()
    }

    /// True when there are no labels.
    pub fn is_empty(&self) -> bool {
        self.0.pairs.is_empty()
    }

    /// Address of the shared pair list — equal pointers imply equal
    /// content (the converse is false).
    pub fn ptr_id(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// A stable 64-bit signature of the full label set — what `Hash`
    /// feeds, so a set already in some label-keyed map (every stored
    /// series' is) is found again without touching its strings.
    pub fn signature(&self) -> u64 {
        self.0.signature
    }
}

impl fmt::Display for Labels {
    /// Prometheus exposition style: `name{l1="v1",l2="v2"}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(name) = self.name() {
            write!(f, "{name}")?;
        }
        let rest: Vec<String> = self
            .iter()
            .filter(|(n, _)| *n != NAME_LABEL)
            .map(|(n, v)| format!("{n}=\"{v}\""))
            .collect();
        if !rest.is_empty() || self.name().is_none() {
            write!(f, "{{{}}}", rest.join(","))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Labels {
        Labels::from_pairs([
            (NAME_LABEL, "amfcc_n1_auth_request"),
            ("instance", "amf-0"),
            ("nf", "amf"),
        ])
    }

    #[test]
    fn pairs_are_sorted_and_unique() {
        let l = Labels::from_pairs([("z", "1"), ("a", "2"), ("z", "3")]);
        let pairs: Vec<(&str, &str)> = l.iter().collect();
        assert_eq!(pairs, vec![("a", "2"), ("z", "3")]);
    }

    #[test]
    fn get_and_name() {
        let l = sample();
        assert_eq!(l.get("instance"), Some("amf-0"));
        assert_eq!(l.get("missing"), None);
        assert_eq!(l.name(), Some("amfcc_n1_auth_request"));
    }

    #[test]
    fn with_replaces_existing() {
        let l = sample().with("instance", "amf-1");
        assert_eq!(l.get("instance"), Some("amf-1"));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn without_removes() {
        let l = sample().without("nf");
        assert_eq!(l.get("nf"), None);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn drop_name_removes_metric_name_only() {
        let l = sample().drop_name();
        assert_eq!(l.name(), None);
        assert_eq!(l.get("instance"), Some("amf-0"));
    }

    #[test]
    fn keep_only_selects_subset() {
        let l = sample().keep_only(&["nf"]);
        assert_eq!(l.len(), 1);
        assert_eq!(l.get("nf"), Some("amf"));
    }

    #[test]
    fn drop_listed_and_name_is_without_semantics() {
        let l = sample().drop_listed_and_name(&["instance"]);
        assert_eq!(l.len(), 1);
        assert_eq!(l.get("nf"), Some("amf"));
    }

    #[test]
    fn display_is_exposition_format() {
        assert_eq!(
            sample().to_string(),
            "amfcc_n1_auth_request{instance=\"amf-0\",nf=\"amf\"}"
        );
        assert_eq!(Labels::name_only("up").to_string(), "up");
        assert_eq!(Labels::empty().to_string(), "{}");
    }

    impl Labels {
        /// A separately allocated copy that claims `signature` as its
        /// own: real `DefaultHasher` collisions cannot be produced in a
        /// test, so the collision tests inject them here.
        pub(crate) fn forced_signature(&self, signature: u64) -> Labels {
            let pairs = self.0.pairs.clone();
            Labels(Arc::new(Shared { pairs, signature }))
        }
    }

    #[test]
    fn debug_prints_the_pairs_and_nothing_else() {
        let l = Labels::from_pairs([("b", "2"), ("a", "1")]);
        assert_eq!(format!("{l:?}"), r#"Labels([("a", "1"), ("b", "2")])"#);
        assert_eq!(format!("{:?}", Labels::empty()), "Labels([])");
        assert_eq!(
            format!("{:#?}", Labels::name_only("up")),
            "Labels(\n    [\n        (\n            \"__name__\",\n            \"up\",\n        ),\n    ],\n)"
        );
    }

    #[test]
    fn a_clone_on_another_thread_hashes_equal() {
        use std::collections::hash_map::RandomState;
        use std::hash::BuildHasher;
        let hasher = RandomState::new();
        let (here, apart) = (sample(), sample());
        let clone = here.clone();
        let there = std::thread::scope(|scope| {
            let hasher = &hasher;
            let thread = scope.spawn(move || (hasher.hash_one(&clone), clone.signature()));
            thread.join().unwrap()
        });
        assert_eq!(there, (hasher.hash_one(&here), here.signature()));
        // And so does an equal set built elsewhere.
        assert_eq!(there, (hasher.hash_one(&apart), apart.signature()));
    }

    #[test]
    fn equality_reads_content_when_signatures_collide() {
        let a = sample().forced_signature(7);
        let b = sample().with("instance", "amf-1").forced_signature(7);
        assert_eq!(a.signature(), b.signature());
        assert_ne!(a, b);
        assert_eq!(a, sample().forced_signature(7));
    }

    #[test]
    fn signature_distinguishes_label_sets() {
        assert_ne!(
            sample().signature(),
            sample().with("instance", "amf-1").signature()
        );
        assert_eq!(sample().signature(), sample().signature());
    }

    #[test]
    fn decoded_pairs_must_already_be_canonical() {
        let pair = |n: &str, v: &str| (n.to_string(), v.to_string());
        let sorted = vec![pair("a", "1"), pair("b", "2")];
        assert_eq!(
            Labels::from_sorted_pairs(sorted),
            Some(Labels::from_pairs([("a", "1"), ("b", "2")]))
        );
        assert_eq!(Labels::from_sorted_pairs(Vec::new()), Some(Labels::empty()));
        let swapped = vec![pair("b", "2"), pair("a", "1")];
        assert_eq!(Labels::from_sorted_pairs(swapped), None);
        let repeated = vec![pair("a", "1"), pair("a", "2")];
        assert_eq!(Labels::from_sorted_pairs(repeated), None);
        // Deserialization goes through the same check.
        let back: Labels = serde_json::from_str(r#"[["a","1"],["b","2"]]"#).unwrap();
        assert_eq!(back.get("b"), Some("2"));
        assert!(serde_json::from_str::<Labels>(r#"[["b","2"],["a","1"]]"#).is_err());
        assert!(serde_json::from_str::<Labels>(r#"[["a","1"],["a","2"]]"#).is_err());
    }

    #[test]
    fn equality_is_order_independent() {
        let a = Labels::from_pairs([("x", "1"), ("y", "2")]);
        let b = Labels::from_pairs([("y", "2"), ("x", "1")]);
        assert_eq!(a, b);
    }
}
