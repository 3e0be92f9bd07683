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
/// every string. Comparison, hashing, and serde all see through the
/// pointer to the content.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Labels(Arc<Vec<(String, String)>>);

impl Serialize for Labels {
    fn to_value(&self) -> serde::Value {
        self.0.as_slice().to_value()
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
    /// Empty label set.
    pub fn empty() -> Self {
        Labels(Arc::new(Vec::new()))
    }

    /// Build from pairs; later duplicates overwrite earlier ones.
    pub fn from_pairs<I, S1, S2>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S1, S2)>,
        S1: Into<String>,
        S2: Into<String>,
    {
        let mut labels = Labels::empty();
        for (k, v) in pairs {
            labels = labels.with(k.into(), v.into());
        }
        labels
    }

    /// Wrap pairs that are already in canonical order, checking that
    /// they are: `None` unless names are strictly increasing. The way
    /// in for pairs decoded from bytes (WAL records, snapshots), where
    /// silently reordering or dropping a duplicate would be a guess.
    pub fn from_sorted_pairs(pairs: Vec<(String, String)>) -> Option<Self> {
        pairs
            .windows(2)
            .all(|w| w[0].0 < w[1].0)
            .then(|| Labels(Arc::new(pairs)))
    }

    /// A label set containing only the metric name.
    pub fn name_only(name: &str) -> Self {
        Labels(Arc::new(vec![(NAME_LABEL.to_string(), name.to_string())]))
    }

    /// Return a copy with `name=value` set (replacing any existing value).
    pub fn with(&self, name: impl Into<String>, value: impl Into<String>) -> Self {
        let (name, value) = (name.into(), value.into());
        let mut pairs = (*self.0).clone();
        match pairs.binary_search_by(|(n, _)| n.as_str().cmp(name.as_str())) {
            Ok(i) => pairs[i].1 = value,
            Err(i) => pairs.insert(i, (name, value)),
        }
        Labels(Arc::new(pairs))
    }

    /// Return a copy with `name` removed (no-op when absent).
    pub fn without(&self, name: &str) -> Self {
        Labels(Arc::new(
            self.0
                .iter()
                .filter(|(n, _)| n != name)
                .cloned()
                .collect(),
        ))
    }

    /// Value of a label, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.0[i].1.as_str())
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
        Labels(Arc::new(
            self.0
                .iter()
                .filter(|(n, _)| names.contains(&n.as_str()))
                .cloned()
                .collect(),
        ))
    }

    /// Drop the listed label names and `__name__` — PromQL
    /// `without (…)` semantics.
    pub fn drop_listed_and_name(&self, names: &[&str]) -> Self {
        Labels(Arc::new(
            self.0
                .iter()
                .filter(|(n, _)| n != NAME_LABEL && !names.contains(&n.as_str()))
                .cloned()
                .collect(),
        ))
    }

    /// Iterate `(name, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no labels.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Address of the shared pair list — equal pointers imply equal
    /// content (the converse is false). Lets hot accumulation paths
    /// skip content hashing when the same `Labels` clone flows through
    /// every evaluation step.
    pub fn ptr_id(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// A stable 64-bit signature of the full label set.
    pub fn signature(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.0.hash(&mut h);
        h.finish()
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
