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

/// Accumulates the cost of many queries.
#[derive(Debug, Clone, Default)]
pub struct CostLedger {
    queries: usize,
    cost_usd: f64,
}

impl CostLedger {
    /// A fresh ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Record one query's usage at a pricing.
    pub fn record(&mut self, usage: TokenUsage, pricing: Pricing) {
        self.queries += 1;
        self.cost_usd += pricing.cost_usd(usage);
    }

    /// Number of queries recorded.
    pub fn queries(&self) -> usize {
        self.queries
    }

    /// Total cost in USD.
    pub fn total_usd(&self) -> f64 {
        self.cost_usd
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
        let mut m = CostLedger::new();
        let usage = TokenUsage {
            prompt_tokens: 1000,
            completion_tokens: 0,
        };
        m.record(usage, Pricing::gpt4());
        m.record(usage, Pricing::gpt4());
        assert_eq!(m.queries(), 2);
        assert!((m.total_usd() - 0.06).abs() < 1e-12);
        let mean_cents = m.total_usd() * 100.0 / m.queries() as f64;
        assert!((mean_cents - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_meter_mean_is_zero() {
        let m = CostLedger::new();
        assert_eq!((m.queries(), m.total_usd()), (0, 0.0));
    }
}
