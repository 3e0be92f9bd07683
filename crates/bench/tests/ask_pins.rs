//! Pins what a pipeline refactor must not move: the tokens and cents
//! the 200 benchmark questions bill, on the default path and on a run
//! where every question takes exactly one repair round, each at the
//! default configuration and as the paper configuration (k = 29). The
//! paper-row values were computed at the commit before `AskRequest`
//! landed, when k = 29 was the default; the default's at the commit
//! that moved it to 10.

use dio_bench::{paper_config, Experiment};
use dio_copilot::CopilotConfig;
use dio_llm::{
    Completion, CompletionRequest, FoundationModel, ModelError, ModelProfile, Pricing,
    SimulatedModel, TaskKind,
};

/// Delegates to the GPT-4 simulation but breaks every first-try
/// generation, so each ask's first query fails to parse in the sandbox
/// and the repair round's completion is the one that executes.
struct MalformedFirstTry(SimulatedModel);

impl FoundationModel for MalformedFirstTry {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn context_window(&self) -> usize {
        self.0.context_window()
    }
    fn pricing(&self) -> Pricing {
        self.0.pricing()
    }
    fn complete(&self, request: &CompletionRequest) -> Result<Completion, ModelError> {
        let mut c = self.0.complete(request)?;
        if request.prompt.task == TaskKind::GeneratePromql {
            c.text.push_str(" )(");
        }
        Ok(c)
    }
}

/// `(prompt tokens, completion tokens, cents, repair rounds)` summed
/// over the benchmark.
fn bill(
    exp: &Experiment,
    model: Box<dyn FoundationModel>,
    config: CopilotConfig,
) -> (usize, usize, f64, usize) {
    let copilot = exp.copilot_with_config(model, config);
    let mut total = (0, 0, 0.0, 0);
    for q in &exp.questions {
        let r = copilot.ask(&q.text, exp.world.eval_ts);
        total.0 += r.usage.prompt_tokens;
        total.1 += r.usage.completion_tokens;
        total.2 += r.cost_cents;
        total.3 += r.trace.recovery.repairs;
    }
    total
}

fn broken_gpt4() -> Box<dyn FoundationModel> {
    Box::new(MalformedFirstTry(SimulatedModel::new(
        ModelProfile::gpt4_sim(),
    )))
}

#[test]
fn benchmark_bill_is_pinned_on_the_default_and_the_repair_path() {
    let exp = Experiment::standard();
    assert_eq!(exp.questions.len(), 200);

    for (row, config, tokens, pinned_cents, repair_tokens, pinned_repair_cents) in [
        (
            "default",
            CopilotConfig::default(),
            DEFAULT_TOKENS,
            DEFAULT_CENTS,
            REPAIR_TOKENS,
            REPAIR_CENTS,
        ),
        (
            "paper",
            paper_config(),
            PAPER_TOKENS,
            PAPER_CENTS,
            PAPER_REPAIR_TOKENS,
            PAPER_REPAIR_CENTS,
        ),
    ] {
        let (prompt, completion, cents, repairs) = bill(&exp, Experiment::gpt4(), config.clone());
        assert_eq!((prompt, completion, repairs), tokens, "{row}");
        assert!((cents - pinned_cents).abs() < 1e-6, "{row} cents {cents}");

        let (prompt, completion, cents, repairs) = bill(&exp, broken_gpt4(), config);
        assert_eq!((prompt, completion, repairs), repair_tokens, "{row} repair");
        assert!(
            (cents - pinned_repair_cents).abs() < 1e-6,
            "{row} repair cents {cents}"
        );
    }
}

const DEFAULT_TOKENS: (usize, usize, usize) = (462_738, 6_199, 0);
const DEFAULT_CENTS: f64 = 1_425.408;
const REPAIR_TOKENS: (usize, usize, usize) = (947_875, 12_398, 200);
const REPAIR_CENTS: f64 = 2_918.013;
const PAPER_TOKENS: (usize, usize, usize) = (656_541, 6_203, 0);
const PAPER_CENTS: f64 = 2_006.841;
const PAPER_REPAIR_TOKENS: (usize, usize, usize) = (1_335_485, 12_406, 200);
const PAPER_REPAIR_CENTS: f64 = 4_080.891;
