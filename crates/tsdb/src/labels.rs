//! Label sets identifying time series.

use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
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
#[derive(Clone)]
pub struct Labels(Arc<Shared>);

/// A set's pairs as one text buffer: three allocations (this, `text`
/// and `ends`) whatever the pair count.
struct Shared {
    /// Content hash of the pairs, computed when the set is built: a
    /// pure function of them, so clones on any thread agree and sets
    /// built apart from equal pairs carry equal signatures.
    signature: u64,
    /// Every name and value, back to back, in pair order.
    text: Box<str>,
    /// Where each name and each value ends in `text`: pair `i` is
    /// `text[ends[2i - 1]..ends[2i]]` = `text[ends[2i]..ends[2i + 1]]`
    /// (the first name starts at 0).
    ends: Box<[u32]>,
}

impl Default for Labels {
    fn default() -> Self {
        Labels::empty()
    }
}

impl PartialEq for Labels {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.0, &*other.0);
        Arc::ptr_eq(&self.0, &other.0)
            || (a.signature == b.signature && a.ends == b.ends && a.text == b.text)
    }
}

impl Eq for Labels {}

impl PartialOrd for Labels {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Labels {
    /// Pair by pair, as `Vec<(String, String)>` orders; the signature
    /// decides only between equal pairs, where it is equal too.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter()
            .cmp(other.iter())
            .then(self.0.signature.cmp(&other.0.signature))
    }
}

impl Hash for Labels {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.signature);
    }
}

/// Hashes a [`Labels`] key to the signature it carries: the signature
/// already is a content hash, so running SipHash over it again only
/// costs time.
#[derive(Default)]
pub(crate) struct SignatureHasher(u64);

impl Hasher for SignatureHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // `Labels` only ever writes its signature; fold anything else.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, signature: u64) {
        self.0 = signature;
    }
}

/// A map keyed by label set that hashes each key's signature as is.
pub(crate) type LabelMap<V> = HashMap<Labels, V, BuildHasherDefault<SignatureHasher>>;

impl fmt::Debug for Labels {
    /// What the derive printed when the pairs were the only field: both
    /// query engines' results are compared by their `{:?}` renderings,
    /// which must keep showing the pairs and nothing else.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pairs: Vec<(&str, &str)> = self.iter().collect();
        f.debug_tuple("Labels").field(&pairs).finish()
    }
}

impl Serialize for Labels {
    fn to_value(&self) -> serde::Value {
        serde::Value::Arr(self.iter().map(|pair| pair.to_value()).collect())
    }
}

impl<'de> Deserialize<'de> for Labels {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let pairs = <Vec<(String, String)> as Deserialize>::from_value(value)?;
        let borrowed: Vec<(&str, &str)> = pairs
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_str()))
            .collect();
        Labels::from_sorted_pairs(&borrowed)
            .ok_or_else(|| serde::Error::msg("label names must be sorted and unique"))
    }
}

impl Labels {
    /// Build from pairs already sorted by name and unique — the one
    /// constructor every other ends in. `None` when the text would not
    /// fit `ends`' 32-bit offsets: rejected before anything is
    /// allocated, never wrapped.
    fn packed<'a>(pairs: impl Iterator<Item = (&'a str, &'a str)> + Clone) -> Option<Self> {
        let (count, len) = Labels::measure(pairs.clone())?;
        let mut text = String::with_capacity(len);
        let mut ends = Vec::with_capacity(2 * count);
        // The sequence `Vec<(String, String)>::hash` feeds: the length,
        // then each name and value as a `str`.
        let mut h = DefaultHasher::new();
        h.write_usize(count);
        for (name, value) in pairs {
            for part in [name, value] {
                part.hash(&mut h);
                text.push_str(part);
                ends.push(text.len() as u32);
            }
        }
        Some(Labels(Arc::new(Shared {
            signature: h.finish(),
            text: text.into_boxed_str(),
            ends: ends.into_boxed_slice(),
        })))
    }

    /// The pair count and text length of `pairs`, `None` unless every
    /// offset into the text fits `u32`.
    fn measure<'a>(pairs: impl Iterator<Item = (&'a str, &'a str)>) -> Option<(usize, usize)> {
        let (mut count, mut len) = (0usize, 0usize);
        for (name, value) in pairs {
            count += 1;
            len = len.checked_add(name.len())?.checked_add(value.len())?;
        }
        u32::try_from(len).ok()?;
        Some((count, len))
    }

    /// [`Labels::packed`] for sets built from values in memory, which
    /// cannot reach 4 GiB of text.
    fn new<'a>(pairs: impl Iterator<Item = (&'a str, &'a str)> + Clone) -> Self {
        Labels::packed(pairs).expect("label text longer than 4 GiB")
    }

    /// Empty label set.
    pub fn empty() -> Self {
        Labels::new(std::iter::empty())
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
        Labels::new(pairs.iter().map(|(n, v)| (n.as_str(), v.as_str())))
    }

    /// Wrap pairs that are already in canonical order, checking that
    /// they are: `None` unless names are strictly increasing. The way
    /// in for pairs decoded from bytes (WAL records), where
    /// silently reordering or dropping a duplicate would be a guess.
    /// Borrowed, so a decoder copies each string once, into the set.
    pub fn from_sorted_pairs(pairs: &[(&str, &str)]) -> Option<Self> {
        if pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            Labels::packed(pairs.iter().copied())
        } else {
            None
        }
    }

    /// A label set containing only the metric name.
    pub fn name_only(name: &str) -> Self {
        Labels::new(std::iter::once((NAME_LABEL, name)))
    }

    /// Return a copy with `name=value` set (replacing any existing value).
    pub fn with(&self, name: impl Into<String>, value: impl Into<String>) -> Self {
        let (name, value) = (name.into(), value.into());
        let mut pairs: Vec<(&str, &str)> = self.iter().collect();
        match pairs.binary_search_by(|(n, _)| (*n).cmp(name.as_str())) {
            Ok(i) => pairs[i].1 = value.as_str(),
            Err(i) => pairs.insert(i, (&name, &value)),
        }
        Labels::new(pairs.into_iter())
    }

    /// The pairs whose name passes `keep`, as a new set.
    fn filtered(&self, keep: impl Fn(&str) -> bool) -> Self {
        Labels::new(self.iter().filter(|(n, _)| keep(n)))
    }

    /// Return a copy with `name` removed (no-op when absent).
    pub fn without(&self, name: &str) -> Self {
        self.filtered(|n| n != name)
    }

    /// Value of a label, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            let (n, v) = self.pair(mid);
            match n.cmp(name) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(v),
            }
        }
        None
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

    /// Pair `i` (`i < len()`).
    fn pair(&self, i: usize) -> (&str, &str) {
        let Shared { text, ends, .. } = &*self.0;
        let start = if i == 0 { 0 } else { ends[2 * i - 1] as usize };
        let (mid, end) = (ends[2 * i] as usize, ends[2 * i + 1] as usize);
        (&text[start..mid], &text[mid..end])
    }

    /// Iterate `(name, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> + Clone {
        let Shared { text, ends, .. } = &*self.0;
        let mut start = 0;
        ends.chunks_exact(2).map(move |e| {
            let (mid, end) = (e[0] as usize, e[1] as usize);
            let pair = (&text[start..mid], &text[mid..end]);
            start = end;
            pair
        })
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.0.ends.len() / 2
    }

    /// True when there are no labels.
    pub fn is_empty(&self) -> bool {
        self.0.ends.is_empty()
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
            Labels(Arc::new(Shared {
                signature,
                text: self.0.text.clone(),
                ends: self.0.ends.clone(),
            }))
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
        assert_eq!(
            Labels::from_sorted_pairs(&[("a", "1"), ("b", "2")]),
            Some(Labels::from_pairs([("a", "1"), ("b", "2")]))
        );
        assert_eq!(Labels::from_sorted_pairs(&[]), Some(Labels::empty()));
        assert_eq!(Labels::from_sorted_pairs(&[("b", "2"), ("a", "1")]), None);
        assert_eq!(Labels::from_sorted_pairs(&[("a", "1"), ("a", "2")]), None);
        // Deserialization goes through the same check.
        let back: Labels = serde_json::from_str(r#"[["a","1"],["b","2"]]"#).unwrap();
        assert_eq!(back.get("b"), Some("2"));
        assert!(serde_json::from_str::<Labels>(r#"[["b","2"],["a","1"]]"#).is_err());
        assert!(serde_json::from_str::<Labels>(r#"[["a","1"],["a","2"]]"#).is_err());
    }

    #[test]
    fn text_past_32_bit_offsets_is_rejected_not_wrapped() {
        // 4 096 values of 1 MiB: 2^32 bytes of text, one past the last
        // offset `u32` holds. Measuring refuses it, so nothing is packed
        // (the test calls the measure alone: a build that skipped it
        // would try to allocate 4 GiB).
        let value = "v".repeat(1 << 20);
        let at_limit = std::iter::repeat(("", value.as_str())).take(4_095);
        let full = (0..(1 << 20) - 1).map(|_| ("", "v"));
        assert_eq!(
            Labels::measure(at_limit.clone().chain(full.clone())),
            Some((4_095 + (1 << 20) - 1, u32::MAX as usize))
        );
        assert_eq!(
            Labels::measure(at_limit.chain(full).chain([("", "v")])),
            None
        );
        assert_eq!(
            Labels::measure(std::iter::repeat(("n", value.as_str())).take(4_096)),
            None
        );
    }

    #[test]
    fn equality_is_order_independent() {
        let a = Labels::from_pairs([("x", "1"), ("y", "2")]);
        let b = Labels::from_pairs([("y", "2"), ("x", "1")]);
        assert_eq!(a, b);
    }
}
