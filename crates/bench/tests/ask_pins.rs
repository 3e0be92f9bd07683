//! Pins what a pipeline refactor must not move: the tokens and cents
//! the 200 benchmark questions bill, on the default path and on a run
//! where every question takes exactly one repair round. The expected
//! values were computed at the commit before `AskRequest` landed.

use dio_bench::Experiment;
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
fn bill(exp: &Experiment, model: Box<dyn FoundationModel>) -> (usize, usize, f64, usize) {
    let mut copilot = exp.copilot(model);
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

#[test]
fn benchmark_bill_is_pinned_on_the_default_and_the_repair_path() {
    let exp = Experiment::standard();
    assert_eq!(exp.questions.len(), 200);

    let (prompt, completion, cents, repairs) = bill(&exp, Experiment::gpt4());
    assert_eq!((prompt, completion, repairs), DEFAULT_TOKENS);
    assert!(
        (cents - DEFAULT_CENTS).abs() < 1e-6,
        "default cents {cents}"
    );

    let gpt4 = SimulatedModel::new(ModelProfile::gpt4_sim());
    let (prompt, completion, cents, repairs) = bill(&exp, Box::new(MalformedFirstTry(gpt4)));
    assert_eq!((prompt, completion, repairs), REPAIR_TOKENS);
    assert!((cents - REPAIR_CENTS).abs() < 1e-6, "repair cents {cents}");
}

const DEFAULT_TOKENS: (usize, usize, usize) = (656_541, 6_203, 0);
const DEFAULT_CENTS: f64 = 2_006.841;
const REPAIR_TOKENS: (usize, usize, usize) = (1_335_485, 12_406, 200);
const REPAIR_CENTS: f64 = 4_080.891;
