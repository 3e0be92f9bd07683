//! Token usage accounting and pricing (paper §4.2.5, "Inference cost").

use serde::{Deserialize, Serialize};

/// Token usage of one completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TokenUsage {
    /// Tokens in the prompt.
    pub prompt_tokens: usize,
    /// Tokens generated.
    pub completion_tokens: usize,
}

impl TokenUsage {
    /// Sum of prompt and completion tokens.
    pub fn total(&self) -> usize {
        self.prompt_tokens + self.completion_tokens
    }

    /// Accumulate another usage.
    pub fn add(&mut self, other: TokenUsage) {
        self.prompt_tokens += other.prompt_tokens;
        self.completion_tokens += other.completion_tokens;
    }
}

/// Per-1k-token pricing in USD, as of the paper's evaluation period
/// (late 2023 OpenAI list prices).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pricing {
    /// USD per 1000 prompt tokens.
    pub prompt_per_1k: f64,
    /// USD per 1000 completion tokens.
    pub completion_per_1k: f64,
}

impl Pricing {
    /// GPT-4 (8k) list price: $0.03 / $0.06.
    pub fn gpt4() -> Self {
        Pricing {
            prompt_per_1k: 0.03,
            completion_per_1k: 0.06,
        }
    }

    /// GPT-3.5-turbo list price: $0.0015 / $0.002.
    pub fn gpt35_turbo() -> Self {
        Pricing {
            prompt_per_1k: 0.0015,
            completion_per_1k: 0.002,
        }
    }

    /// text-curie-001 list price: $0.002 / $0.002.
    pub fn text_curie() -> Self {
        Pricing {
            prompt_per_1k: 0.002,
            completion_per_1k: 0.002,
        }
    }

    /// Cost of a usage in USD.
    pub fn cost_usd(&self, usage: TokenUsage) -> f64 {
        usage.prompt_tokens as f64 / 1000.0 * self.prompt_per_1k
            + usage.completion_tokens as f64 / 1000.0 * self.completion_per_1k
    }

    /// Cost of a usage in US cents (how the paper reports it).
    pub fn cost_cents(&self, usage: TokenUsage) -> f64 {
        self.cost_usd(usage) * 100.0
    }
}

/// Accumulates usage and cost over many queries, keeping the prompt
/// and completion sides of the bill separate.
///
/// The original meter folded everything into one lump `cost_usd`,
/// which made per-batch prefix amortization unmeasurable: a gateway
/// that prices a shared catalog+exemplar prefix once per batch changes
/// only the *prompt* side of the bill, and a lump sum cannot show
/// that. The ledger splits the running total into `prompt_usd` /
/// `completion_usd` (their sum is the old `cost_usd`, kept as a field
/// so serialized meters stay backward-compatible) and tracks the
/// prefix-vs-suffix token split for batched calls.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CostLedger {
    usage: TokenUsage,
    queries: usize,
    /// Lump-sum total, maintained as `prompt_usd + completion_usd` for
    /// backward compatibility with consumers of the serialized form.
    cost_usd: f64,
    /// Prompt-side spend in USD.
    #[serde(default)]
    prompt_usd: f64,
    /// Completion-side spend in USD.
    #[serde(default)]
    completion_usd: f64,
    /// Batched model calls recorded via [`CostLedger::record_batch`].
    #[serde(default)]
    batches: usize,
    /// Shared-prefix tokens actually billed (once per batch).
    #[serde(default)]
    prefix_tokens_billed: usize,
    /// Shared-prefix tokens *not* billed thanks to amortization: the
    /// prefix re-sends that unbatched calls would have paid.
    #[serde(default)]
    prefix_tokens_saved: usize,
}

/// The historical name for the per-query cost aggregator. The ledger
/// is a strict superset, so the old name stays as an alias.
pub type CostMeter = CostLedger;

impl CostLedger {
    /// A fresh ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Record one query's usage at a pricing.
    pub fn record(&mut self, usage: TokenUsage, pricing: Pricing) {
        self.usage.add(usage);
        self.queries += 1;
        let prompt = usage.prompt_tokens as f64 / 1000.0 * pricing.prompt_per_1k;
        let completion = usage.completion_tokens as f64 / 1000.0 * pricing.completion_per_1k;
        self.prompt_usd += prompt;
        self.completion_usd += completion;
        self.cost_usd += prompt + completion;
    }

    /// Record one *batched* model call that answered `items` queries
    /// with a shared prefix of `prefix_tokens` billed once. `combined`
    /// is the usage actually billed for the single upstream call.
    ///
    /// Compared with sending each item alone, the batch avoided
    /// re-sending the prefix `items - 1` times; that saving is
    /// tracked in tokens so callers can price it at any tier.
    pub fn record_batch(
        &mut self,
        combined: TokenUsage,
        prefix_tokens: usize,
        items: usize,
        pricing: Pricing,
    ) {
        self.usage.add(combined);
        self.queries += items;
        self.batches += 1;
        self.prefix_tokens_billed += prefix_tokens;
        self.prefix_tokens_saved += prefix_tokens * items.saturating_sub(1);
        let prompt = combined.prompt_tokens as f64 / 1000.0 * pricing.prompt_per_1k;
        let completion = combined.completion_tokens as f64 / 1000.0 * pricing.completion_per_1k;
        self.prompt_usd += prompt;
        self.completion_usd += completion;
        self.cost_usd += prompt + completion;
    }

    /// Number of queries recorded (batched calls count each item).
    pub fn queries(&self) -> usize {
        self.queries
    }

    /// Accumulated usage.
    pub fn usage(&self) -> TokenUsage {
        self.usage
    }

    /// Total cost in USD.
    pub fn total_usd(&self) -> f64 {
        self.cost_usd
    }

    /// Prompt-side spend in USD.
    pub fn prompt_usd(&self) -> f64 {
        self.prompt_usd
    }

    /// Completion-side spend in USD.
    pub fn completion_usd(&self) -> f64 {
        self.completion_usd
    }

    /// Batched calls recorded.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Shared-prefix tokens billed once per batch.
    pub fn prefix_tokens_billed(&self) -> usize {
        self.prefix_tokens_billed
    }

    /// Prefix tokens amortization kept off the bill.
    pub fn prefix_tokens_saved(&self) -> usize {
        self.prefix_tokens_saved
    }

    /// The amortization saving priced at `pricing`'s prompt rate, USD.
    pub fn prefix_saved_usd(&self, pricing: Pricing) -> f64 {
        self.prefix_tokens_saved as f64 / 1000.0 * pricing.prompt_per_1k
    }

    /// Mean cost per query in US cents — the §4.2.5 metric.
    pub fn mean_cents_per_query(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.cost_usd * 100.0 / self.queries as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_totals_and_adds() {
        let mut u = TokenUsage {
            prompt_tokens: 100,
            completion_tokens: 20,
        };
        assert_eq!(u.total(), 120);
        u.add(TokenUsage {
            prompt_tokens: 10,
            completion_tokens: 5,
        });
        assert_eq!(u.prompt_tokens, 110);
        assert_eq!(u.completion_tokens, 25);
    }

    #[test]
    fn gpt4_pricing_matches_paper_ballpark() {
        // ~1300 prompt + 60 completion tokens ≈ 4.25 cents (§4.2.5).
        let usage = TokenUsage {
            prompt_tokens: 1300,
            completion_tokens: 60,
        };
        let cents = Pricing::gpt4().cost_cents(usage);
        assert!((3.5..=5.0).contains(&cents), "got {cents}");
    }

    #[test]
    fn gpt35_is_an_order_of_magnitude_cheaper() {
        let usage = TokenUsage {
            prompt_tokens: 1300,
            completion_tokens: 60,
        };
        let g4 = Pricing::gpt4().cost_cents(usage);
        let g35 = Pricing::gpt35_turbo().cost_cents(usage);
        assert!(g4 / g35 > 10.0, "ratio {}", g4 / g35);
    }

    #[test]
    fn meter_accumulates_mean() {
        let mut m = CostMeter::new();
        let usage = TokenUsage {
            prompt_tokens: 1000,
            completion_tokens: 0,
        };
        m.record(usage, Pricing::gpt4());
        m.record(usage, Pricing::gpt4());
        assert_eq!(m.queries(), 2);
        assert!((m.total_usd() - 0.06).abs() < 1e-12);
        assert!((m.mean_cents_per_query() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_meter_mean_is_zero() {
        assert_eq!(CostMeter::new().mean_cents_per_query(), 0.0);
    }

    #[test]
    fn ledger_splits_prompt_and_completion_spend() {
        let mut l = CostLedger::new();
        l.record(
            TokenUsage {
                prompt_tokens: 1000,
                completion_tokens: 500,
            },
            Pricing::gpt4(),
        );
        assert!((l.prompt_usd() - 0.03).abs() < 1e-12);
        assert!((l.completion_usd() - 0.03).abs() < 1e-12);
        // The lump sum stays the sum of the two sides.
        assert!((l.total_usd() - (l.prompt_usd() + l.completion_usd())).abs() < 1e-12);
    }

    #[test]
    fn record_batch_amortizes_the_prefix() {
        // Four items sharing a 900-token prefix with 100-token suffixes:
        // billed once as 900 + 4*100 = 1300 prompt tokens.
        let mut batched = CostLedger::new();
        batched.record_batch(
            TokenUsage {
                prompt_tokens: 1300,
                completion_tokens: 80,
            },
            900,
            4,
            Pricing::gpt4(),
        );
        assert_eq!(batched.queries(), 4);
        assert_eq!(batched.batches(), 1);
        assert_eq!(batched.prefix_tokens_billed(), 900);
        assert_eq!(batched.prefix_tokens_saved(), 2700);
        // Unbatched, the same four items each pay the prefix.
        let mut solo = CostLedger::new();
        for _ in 0..4 {
            solo.record(
                TokenUsage {
                    prompt_tokens: 1000,
                    completion_tokens: 20,
                },
                Pricing::gpt4(),
            );
        }
        assert!(batched.total_usd() < solo.total_usd());
        let saving = solo.prompt_usd() - batched.prompt_usd();
        assert!((saving - batched.prefix_saved_usd(Pricing::gpt4())).abs() < 1e-12);
    }

    #[test]
    fn ledger_serialization_keeps_cost_usd() {
        let mut l = CostLedger::new();
        l.record(
            TokenUsage {
                prompt_tokens: 1000,
                completion_tokens: 0,
            },
            Pricing::gpt4(),
        );
        let json = serde_json::to_string(&l).unwrap();
        assert!(json.contains("\"cost_usd\""), "{json}");
        let back: CostLedger = serde_json::from_str(&json).unwrap();
        assert!((back.total_usd() - l.total_usd()).abs() < 1e-12);
    }
}
