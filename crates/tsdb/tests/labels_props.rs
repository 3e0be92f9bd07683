//! Property tests for [`Labels`]: a set's identity — equality, hash,
//! signature, `{:?}` — is a function of its pairs alone, whichever way
//! the set was built and whether or not it has been hashed since.

use dio_faults::MemMedium;
use dio_tsdb::{recover, Labels, Sample, Wal, WalRecord};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
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
        prop_assert!(Labels::from_sorted_pairs(
            built.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
        ).is_some(), "not canonical: {:?}", built);
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
        let wrapped = Labels::from_sorted_pairs(unique).expect("canonical pairs");
        let json = serde_json::to_string(&canonical).expect("labels serialize");
        let parsed: Labels = serde_json::from_str(&json).expect("labels parse");
        let mut wal = Wal::new(MemMedium::new());
        wal.append(&WalRecord {
            labels: canonical.clone(),
            sample: Sample::new(1, 1.0),
        })
        .expect("memory medium");
        let decoded = recover(wal.medium().bytes()).records.remove(0).labels;

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
}
