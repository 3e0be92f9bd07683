//! The seeded request schedule of `serve_mixed`.
//!
//! Over a pool of `n` distinct questions the schedule holds
//!
//! * every question once, in seeded order — each a cache miss;
//! * a fixed two-thirds of them once more, later, cycling through
//!   three spellings (verbatim, upper-cased and padded, `" ??"`
//!   suffix) so that the exact, the normalized and the semantic answer
//!   caches each see traffic;
//! * `storms` "refresh-storm" duplicates placed right after their first
//!   occurrence, so that two clients collide in singleflight;
//!
//! with tenants assigned round-robin. With `n = 474` that is ≈ 830 ops
//! of which ≈ 57% are misses: the median and the 95th percentile both
//! sit inside the miss mode and throughput carries the hit rate.

use crate::world::{rng, Digest, BENCHMARK_SEED};
use rand::seq::SliceRandom;
use rand::Rng;

pub const TENANTS: [&str; 4] = ["noc-east", "noc-west", "core-eng", "dashboards"];
/// Refresh-storm duplicates in a full-size schedule.
pub const STORMS: usize = 40;
/// A repeat is scheduled at least this many first-occurrences after
/// its original, so the original has been answered by then.
const REPEAT_GAP: usize = 8;

/// How a repeated question is spelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spelling {
    Verbatim,
    /// Upper-cased and padded: same normalized key, other raw text.
    Shouted,
    /// `" ??"` suffix: other normalized key, same embedding.
    Suffixed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// First occurrence of the question: a miss.
    First,
    /// A later repeat: a cache hit of some kind.
    Repeat,
    /// Adjacent duplicate of a first occurrence.
    Storm,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Index into the question pool.
    pub question: usize,
    pub spelling: Spelling,
    pub kind: Kind,
    pub tenant: &'static str,
}

impl Entry {
    /// The text submitted for pool question `text`.
    pub fn spell(&self, text: &str) -> String {
        match self.spelling {
            Spelling::Verbatim => text.to_string(),
            Spelling::Shouted => format!("  {}  ", text.to_uppercase()),
            Spelling::Suffixed => format!("{} ??", text.trim_end_matches('?').trim_end()),
        }
    }
}

/// Storm duplicates for a pool of `n` (the full 40 once `n` allows).
pub fn storms_for(n: usize) -> usize {
    STORMS.min(n / 8)
}

/// Build the schedule for a pool of `n` distinct questions.
///
/// *Which* questions are repeated and which get a storm duplicate is
/// fixed (drawn from [`BENCHMARK_SEED`]), so every seed submits the
/// same multiset of questions and `ex_percent` does not move with it.
/// The seed decides the order of first occurrences, where each repeat
/// lands, and how it is spelled.
pub fn build(n: usize, seed: u64) -> Vec<Entry> {
    let mut pick = rng(BENCHMARK_SEED, 6);
    let mut ids: Vec<usize> = (0..n).collect();
    ids.shuffle(&mut pick);
    let mut repeated = ids[..2 * n / 3].to_vec();
    ids.shuffle(&mut pick);
    let stormed = &ids[..storms_for(n)];

    let mut rng = rng(seed, 2);
    let mut firsts: Vec<usize> = (0..n).collect();
    firsts.shuffle(&mut rng);
    let mut rank_of = vec![0; n];
    for (rank, &question) in firsts.iter().enumerate() {
        rank_of[question] = rank;
    }

    // (sort key, entry); firsts sit at their rank.
    let mut keyed: Vec<(f64, Entry)> = firsts
        .iter()
        .enumerate()
        .map(|(rank, &question)| {
            (
                rank as f64,
                entry(question, Spelling::Verbatim, Kind::First),
            )
        })
        .collect();

    repeated.shuffle(&mut rng);
    for (r, &question) in repeated.iter().enumerate() {
        let spelling = [Spelling::Verbatim, Spelling::Shouted, Spelling::Suffixed][r % 3];
        let lo = (rank_of[question] + REPEAT_GAP) as f64;
        let hi = (n + REPEAT_GAP) as f64;
        // `.75` keeps a repeat clear of the `.5` slot right after a
        // first occurrence, which belongs to its storm duplicate.
        let key = if lo < hi {
            rng.gen_range(lo..hi).floor()
        } else {
            hi
        } + 0.75;
        keyed.push((key, entry(question, spelling, Kind::Repeat)));
    }
    for &question in stormed {
        let key = rank_of[question] as f64 + 0.5;
        keyed.push((key, entry(question, Spelling::Verbatim, Kind::Storm)));
    }

    keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("keys are finite"));
    keyed
        .into_iter()
        .enumerate()
        .map(|(i, (_, mut e))| {
            e.tenant = TENANTS[i % TENANTS.len()];
            e
        })
        .collect()
}

fn entry(question: usize, spelling: Spelling, kind: Kind) -> Entry {
    Entry {
        question,
        spelling,
        kind,
        tenant: TENANTS[0],
    }
}

/// Digest of a schedule, recorded with every result.
pub fn digest(schedule: &[Entry]) -> u64 {
    let mut d = Digest::default();
    for e in schedule {
        d.feed(&e.question.to_le_bytes());
        d.feed(&[e.spelling as u8, e.kind as u8]);
        d.feed(e.tenant.as_bytes());
    }
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 474;

    fn count(s: &[Entry], kind: Kind) -> usize {
        s.iter().filter(|e| e.kind == kind).count()
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        assert_eq!(digest(&build(N, 11)), digest(&build(N, 11)));
        assert_ne!(digest(&build(N, 11)), digest(&build(N, 12)));
    }

    #[test]
    fn every_seed_submits_the_same_questions() {
        let multiset = |seed| {
            let mut v: Vec<(usize, u8)> = build(N, seed)
                .iter()
                .map(|e| (e.question, e.kind as u8))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(multiset(11), multiset(12));
        // ... in another order.
        let order = |seed| {
            build(N, seed)
                .iter()
                .map(|e| e.question)
                .collect::<Vec<_>>()
        };
        assert_ne!(order(11), order(12));
    }

    #[test]
    fn proportions_are_as_specified() {
        let s = build(N, 3);
        assert_eq!(count(&s, Kind::First), N);
        assert_eq!(count(&s, Kind::Repeat), 2 * N / 3);
        assert_eq!(count(&s, Kind::Storm), STORMS);
        assert_eq!(s.len(), 830);
        let misses = N as f64 / s.len() as f64;
        assert!((0.55..0.60).contains(&misses), "miss share {misses}");
        // Every pool question exactly once as a first occurrence.
        let mut firsts: Vec<usize> = s
            .iter()
            .filter(|e| e.kind == Kind::First)
            .map(|e| e.question)
            .collect();
        firsts.sort_unstable();
        assert_eq!(firsts, (0..N).collect::<Vec<_>>());
        // The three spellings share the repeats evenly.
        for spelling in [Spelling::Verbatim, Spelling::Shouted, Spelling::Suffixed] {
            let k = s
                .iter()
                .filter(|e| e.kind == Kind::Repeat && e.spelling == spelling)
                .count();
            assert!((105..=106).contains(&k), "{spelling:?} × {k}");
        }
        // Tenants go round-robin.
        assert!(s
            .iter()
            .enumerate()
            .all(|(i, e)| e.tenant == TENANTS[i % 4]));
    }

    #[test]
    fn repeats_come_later_and_storms_come_next() {
        let s = build(N, 5);
        let first_at = |q: usize| {
            s.iter()
                .position(|e| e.question == q && e.kind == Kind::First)
                .unwrap()
        };
        for (i, e) in s.iter().enumerate() {
            match e.kind {
                Kind::First => {}
                Kind::Repeat => assert!(i >= first_at(e.question) + REPEAT_GAP, "repeat at {i}"),
                Kind::Storm => assert_eq!(i, first_at(e.question) + 1, "storm at {i}"),
            }
        }
    }

    #[test]
    fn small_pools_scale_the_storms_down() {
        let s = build(48, 1);
        assert_eq!(
            (
                count(&s, Kind::First),
                count(&s, Kind::Repeat),
                count(&s, Kind::Storm)
            ),
            (48, 32, 6)
        );
    }

    #[test]
    fn spellings_keep_the_question_recognisable() {
        let e = |spelling| entry(0, spelling, Kind::Repeat);
        let q = "How many paging attempts?";
        assert_eq!(e(Spelling::Verbatim).spell(q), q);
        assert_eq!(
            e(Spelling::Shouted).spell(q),
            "  HOW MANY PAGING ATTEMPTS?  "
        );
        assert_eq!(
            e(Spelling::Suffixed).spell(q),
            "How many paging attempts ??"
        );
    }
}
