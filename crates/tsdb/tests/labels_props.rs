//! Property tests for [`Labels`]: a set's identity — equality, hash,
//! signature, `{:?}` — is a function of its pairs alone, whichever way
//! the set was built and whether or not it has been hashed since; and it
//! is the identity the old `Vec<(String, String)>` representation gave,
//! kept here as the oracle.

use dio_tsdb::{recover, Labels, Sample, Wal, WalRecord, NAME_LABEL};
use proptest::prelude::*;
use serde::Serialize;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

fn hash_of(labels: &Labels) -> u64 {
    let mut h = DefaultHasher::new();
    labels.hash(&mut h);
    h.finish()
}

/// Names from a three-letter alphabet, so duplicates are the rule.
fn zip_pairs(names: Vec<String>, values: Vec<String>) -> Vec<(String, String)> {
    names.into_iter().zip(values).collect()
}

/// Fisher–Yates on a SplitMix-style stream.
fn shuffled<T>(mut items: Vec<T>, mut seed: u64) -> Vec<T> {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (seed >> 33) as usize % (i + 1));
    }
    items
}

fn borrowed(pairs: &[(String, String)]) -> Vec<(&str, &str)> {
    pairs
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_str()))
        .collect()
}

/// `Labels` as it was before its pairs moved into one text buffer: the
/// pair vector, and the signature `DefaultHasher` gave it. The derives
/// are the ones `Labels`' shared allocation had, in the same field order.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct OldLabels {
    pairs: Vec<(String, String)>,
    signature: u64,
}

impl OldLabels {
    fn new(pairs: Vec<(String, String)>) -> Self {
        let mut h = DefaultHasher::new();
        pairs.hash(&mut h);
        OldLabels {
            signature: h.finish(),
            pairs,
        }
    }

    fn from_pairs(pairs: Vec<(String, String)>) -> Self {
        let mut pairs = pairs;
        pairs.reverse();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.dedup_by(|a, b| a.0 == b.0);
        OldLabels::new(pairs)
    }

    fn from_sorted_pairs(pairs: Vec<(String, String)>) -> Option<Self> {
        pairs
            .windows(2)
            .all(|w| w[0].0 < w[1].0)
            .then(|| OldLabels::new(pairs))
    }
}

impl fmt::Debug for OldLabels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Labels").field(&self.pairs).finish()
    }
}

impl Serialize for OldLabels {
    fn to_value(&self) -> serde::Value {
        self.pairs.to_value()
    }
}

/// The signature of one fixed label set, and of the empty set, as the
/// `Vec<(String, String)>` representation computed them (pinned on the
/// build before the one-buffer representation).
const PINNED_SIGNATURE: u64 = 0x8945_faea_3201_54c8;
const PINNED_EMPTY_SIGNATURE: u64 = 0xbd60_acb6_58c7_9e45;

#[test]
fn signatures_are_the_ones_the_pair_vector_gave() {
    let pinned = Labels::from_pairs([
        (NAME_LABEL, "amfcc_n1_auth_request"),
        ("instance", "amf-0"),
        ("nf", "amf"),
    ]);
    assert_eq!(pinned.signature(), PINNED_SIGNATURE);
    assert_eq!(Labels::empty().signature(), PINNED_EMPTY_SIGNATURE);
    let old = OldLabels::from_pairs(
        pinned
            .iter()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect(),
    );
    assert_eq!(old.signature, PINNED_SIGNATURE);
}

proptest! {
    /// Building in one go equals folding `with` over the same pairs:
    /// sorted, and of equal names the last one wins.
    #[test]
    fn from_pairs_is_the_fold_of_with(
        names in prop::collection::vec("[a-c]{1,2}", 0..9),
        values in prop::collection::vec("[a-z0-9]{0,3}", 9..10),
    ) {
        let pairs = zip_pairs(names, values);
        let folded = pairs
            .iter()
            .fold(Labels::empty(), |l, (k, v)| l.with(k.clone(), v.clone()));
        let built = Labels::from_pairs(pairs);
        prop_assert_eq!(&built, &folded);
        prop_assert_eq!(format!("{built:?}"), format!("{folded:?}"));
        let canonical: Vec<(&str, &str)> = built.iter().collect();
        prop_assert!(Labels::from_sorted_pairs(&canonical).is_some(), "not canonical: {:?}", built);
    }

    /// Sets equal by content are equal, hash equal and print equal
    /// however they were built, and printing does not change once a set
    /// has been hashed.
    #[test]
    fn equal_content_hashes_equal_however_built(
        names in prop::collection::vec("[a-c]{1,2}", 0..9),
        values in prop::collection::vec("[a-z0-9]{0,3}", 9..10),
        seed in any::<u64>(),
    ) {
        let canonical = Labels::from_pairs(zip_pairs(names, values));
        let unique: Vec<(String, String)> = canonical
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();

        let reordered = Labels::from_pairs(shuffled(unique.clone(), seed));
        // Every pair set in shuffled order, over a value that is
        // overwritten and a label that is removed again.
        let chained = shuffled(unique.clone(), !seed)
            .into_iter()
            .fold(
                Labels::empty().with("zz", "gone"),
                |l, (k, v)| l.with(k.clone(), "stale").with(k, v),
            )
            .without("zz");
        let wrapped = Labels::from_sorted_pairs(&borrowed(&unique)).expect("canonical pairs");
        let json = serde_json::to_string(&canonical).expect("labels serialize");
        let parsed: Labels = serde_json::from_str(&json).expect("labels parse");
        let mut wal = Wal::default();
        wal.append(&WalRecord {
            labels: canonical.clone(),
            sample: Sample::new(1, 1.0),
        });
        let decoded = recover(wal.bytes()).records.remove(0).labels;

        let printed = format!("{canonical:?}");
        let signature = canonical.signature();
        prop_assert_eq!(format!("{canonical:?}"), printed.clone(), "printing changed by hashing");
        for (how, built) in [
            ("reordered", reordered),
            ("chained", chained),
            ("wrapped", wrapped),
            ("parsed", parsed),
            ("decoded", decoded),
        ] {
            prop_assert!(built.ptr_id() != canonical.ptr_id(), "{} shares the allocation", how);
            prop_assert_eq!(format!("{built:?}"), printed.clone(), "{} before hashing", how);
            prop_assert_eq!(&built, &canonical, "{}", how);
            prop_assert_eq!(hash_of(&built), hash_of(&canonical), "{}", how);
            prop_assert_eq!(built.signature(), signature, "{}", how);
            prop_assert_eq!(format!("{built:?}"), printed.clone(), "{} after hashing", how);
        }
        // And a different set is still a different set.
        let other = canonical.with("d", "x");
        prop_assert_ne!(&other, &canonical);
        prop_assert_ne!(other.signature(), signature);
    }

    /// Every observable of a collection of sets — signatures, `==`, the
    /// `Ord` order, `{:?}`, `{:#?}` and JSON — is what the old
    /// representation gave the same pairs. Names and values draw on
    /// empty, multi-byte and shared-prefix strings, so a set whose
    /// concatenated text equals another's still differs at its offsets.
    #[test]
    fn the_one_buffer_representation_matches_the_pair_vector(
        names in prop::collection::vec(prop::collection::vec("[ab_é]{0,2}", 0..5), 1..9),
        values in prop::collection::vec("[ab€]{0,3}", 40..41),
        seed in any::<u64>(),
    ) {
        let mut value = values.iter().cycle();
        let mut new = Vec::new();
        let mut old = Vec::new();
        for set in names {
            let pairs: Vec<(String, String)> = set
                .into_iter()
                .map(|n| (n, value.next().expect("cycled").clone()))
                .collect();
            new.push(Labels::from_pairs(pairs.clone()));
            old.push(OldLabels::from_pairs(pairs));
        }
        // Equal sets built apart, and one set edited both ways.
        new.push(new[0].clone().with("b", "é"));
        old.push(OldLabels::from_pairs(
            old[0].pairs.iter().cloned().chain([("b".to_string(), "é".to_string())]).collect(),
        ));
        let last = new.len() - 1;
        new.push(new[last].without("a"));
        old.push(OldLabels::new(
            old[last].pairs.iter().filter(|(n, _)| n != "a").cloned().collect(),
        ));

        for (a, (n, o)) in new.iter().zip(&old).enumerate() {
            prop_assert_eq!(n.signature(), o.signature, "set {}", a);
            prop_assert_eq!(format!("{n:?}"), format!("{o:?}"), "set {}", a);
            prop_assert_eq!(format!("{n:#?}"), format!("{o:#?}"), "set {}", a);
            prop_assert_eq!(
                serde_json::to_string(n).expect("serializes"),
                serde_json::to_string(o).expect("serializes"),
                "set {}", a
            );
            prop_assert_eq!(n.len(), o.pairs.len(), "set {}", a);
            for (b, (m, p)) in new.iter().zip(&old).enumerate() {
                prop_assert_eq!(n == m, o == p, "sets {} and {}", a, b);
                prop_assert_eq!(n.cmp(m), o.cmp(p), "sets {} and {}", a, b);
            }
        }
        // Sorting a shuffled collection puts both in the same order.
        let order = shuffled((0..new.len()).collect::<Vec<_>>(), seed);
        let mut by_new = order.clone();
        by_new.sort_by(|&a, &b| new[a].cmp(&new[b]));
        let mut by_old = order;
        by_old.sort_by(|&a, &b| old[a].cmp(&old[b]));
        prop_assert_eq!(by_new, by_old);
    }

    /// `from_sorted_pairs` accepts exactly the inputs the old one did —
    /// strictly increasing names — and builds the same set from them.
    #[test]
    fn from_sorted_pairs_accepts_and_rejects_what_the_pair_vector_did(
        names in prop::collection::vec("[a-c]{0,2}", 0..6),
        values in prop::collection::vec("[a-zé]{0,2}", 6..7),
        sort in any::<bool>(),
    ) {
        let mut pairs = zip_pairs(names, values);
        if sort {
            pairs.sort();
        }
        let new = Labels::from_sorted_pairs(&borrowed(&pairs));
        let old = OldLabels::from_sorted_pairs(pairs.clone());
        prop_assert_eq!(new.is_some(), old.is_some(), "{:?}", pairs);
        if let (Some(n), Some(o)) = (new, old) {
            prop_assert_eq!(format!("{n:?}"), format!("{o:?}"));
            prop_assert_eq!(n.signature(), o.signature);
        }
        // Deserialising goes through the same check.
        let json = serde_json::to_string(&pairs).expect("pairs serialize");
        prop_assert_eq!(
            serde_json::from_str::<Labels>(&json).is_ok(),
            OldLabels::from_sorted_pairs(pairs).is_some()
        );
    }
}
