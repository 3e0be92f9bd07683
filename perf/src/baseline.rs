//! Values recorded when the benchmark was defined, which output checks
//! compare against. They hold for every `--seed`: the question pools
//! are fixed and only their order is seeded.

/// `ask_cold`: questions of the 200 whose numeric answer matches the
/// gold value (the repo's EX 144/200 = 72%). A run scoring lower is
/// incorrect; a higher score is reported as it is.
pub const ASK_COLD_EX_CORRECT: u64 = 144;

/// `ask_cold`, traced: digest over every question's retrieved sample
/// names in order. A change is reported, not failed — it is the
/// baseline for "identical `Retrieved` ids and order" claims.
pub const ASK_COLD_RETRIEVAL_DIGEST: u64 = 11_269_413_807_615_525_164;

/// `shard_failover`: length of the synthesised time axis. A 1-minute
/// scrape over this span sizes each shard's WAL so that one takeover
/// (a CRC scan of the replica's log) costs 100–200 ms on the reference
/// host.
pub const SHARD_FAILOVER_AXIS_MS: i64 = 10 * 60 * 1000;
