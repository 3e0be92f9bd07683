//! Pins what the simulated model *says*: `ask_pins` holds tokens and
//! cents, this file holds an FNV-1a digest over `(query, numeric answer
//! bits, values, usage)` of the benchmark questions through every
//! system that prompts the model — for the copilot also the relevant
//! metrics, the explanation and the dashboard, everything an ask
//! derives from the query — and over the completion text of the two
//! task kinds no pipeline issues. The constants were computed at
//! the commit before the model's selection and parsing were rewritten
//! to borrow; a change under `crates/llm/src/sim` that moves one of
//! them changed a completion.

use dio_baselines::NlQuerySystem;
use dio_bench::Experiment;
use dio_copilot::{CopilotConfig, DioCopilot};
use dio_llm::{
    Completion, CompletionRequest, ContextItem, FoundationModel, ModelError, ModelProfile, Pricing,
    PromptBuilder, SimulatedModel, TaskKind, TokenUsage,
};
use std::sync::OnceLock;

fn exp() -> &'static Experiment {
    static EXP: OnceLock<Experiment> = OnceLock::new();
    EXP.get_or_init(Experiment::standard)
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A string, closed by a byte no UTF-8 text holds.
    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn answer(&mut self, query: &str, numeric: Option<f64>, values: &[f64], usage: TokenUsage) {
        self.text(query);
        self.word(numeric.map_or(u64::MAX, f64::to_bits));
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
        self.word(usage.prompt_tokens as u64);
        self.word(usage.completion_tokens as u64);
    }
}

/// All 200 questions through a copilot; what the ask derives from the
/// query (the dashboard is on by default) is part of what is pinned.
fn dio(mut copilot: DioCopilot) -> u64 {
    let exp = exp();
    let mut h = Fnv::new();
    for q in &exp.questions {
        let r = copilot.ask(&q.text, exp.world.eval_ts);
        h.answer(&r.query, r.numeric_answer, &r.values, r.usage);
        for m in &r.relevant_metrics {
            h.text(&m.name);
        }
        h.text(&r.explanation);
        h.text(&r.dashboard.map(|d| d.to_json()).unwrap_or_default());
    }
    h.0
}

/// All 200 through a baseline: a names-only context of 600 items.
fn baseline(mut system: impl NlQuerySystem) -> u64 {
    let exp = exp();
    let mut h = Fnv::new();
    for q in &exp.questions {
        let a = system.answer(&q.text, exp.world.eval_ts);
        h.answer(&a.query, a.numeric_answer, &a.values, a.usage);
    }
    h.0
}

fn sim(profile: ModelProfile) -> Box<dyn FoundationModel> {
    Box::new(SimulatedModel::new(profile))
}

/// `ask_pins`' model: every first-try generation is broken, so the
/// repair round's completion is the one that executes.
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

fn assert_pinned(what: &str, got: u64, pinned: u64) {
    assert_eq!(got, pinned, "{what}: {got:#018x}, pinned {pinned:#018x}");
}

// One test per pipeline, so the harness spreads them over its threads
// and a failure names the pipeline whose completions moved.

#[test]
fn dio_gpt4_answers_are_pinned() {
    let got = dio(exp().copilot(sim(ModelProfile::gpt4_sim())));
    assert_pinned("dio gpt-4", got, 0xf403_b72c_d1f6_8fc2);
}

#[test]
fn dio_gpt35_answers_are_pinned() {
    let got = dio(exp().copilot(sim(ModelProfile::gpt35_turbo_sim())));
    assert_pinned("dio gpt-3.5", got, 0x0208_d46e_0461_d14f);
}

/// curie's 2k window truncates the context: dropped items.
#[test]
fn dio_curie_answers_are_pinned() {
    let got = dio(exp().copilot(sim(ModelProfile::text_curie_sim())));
    assert_pinned("dio curie", got, 0xb12d_b1e2_3e65_0501);
}

#[test]
fn dio_two_stage_answers_are_pinned() {
    let two_stage = CopilotConfig {
        two_stage: true,
        ..CopilotConfig::default()
    };
    let got = dio(exp().copilot_with_config(sim(ModelProfile::gpt4_sim()), two_stage));
    assert_pinned("dio gpt-4 two-stage", got, 0xbd17_8b22_31e0_ed62);
}

#[test]
fn dio_one_repair_round_answers_are_pinned() {
    let broken = MalformedFirstTry(SimulatedModel::new(ModelProfile::gpt4_sim()));
    let got = dio(exp().copilot(Box::new(broken)));
    assert_pinned("dio gpt-4 one repair round", got, 0x38fa_28af_39dc_a3d8);
}

#[test]
fn dinsql_answers_are_pinned() {
    let got = baseline(exp().dinsql(sim(ModelProfile::gpt4_sim())));
    assert_pinned("din-sql", got, 0xa28c_89a6_45e8_a7e2);
}

#[test]
fn direct_answers_are_pinned() {
    let got = baseline(exp().direct(sim(ModelProfile::gpt4_sim())));
    assert_pinned("direct", got, 0xca9a_d66d_dd5f_9644);
}

/// `GenerateDashboard` and `AnswerDirectly` are prompted by no
/// pipeline: the model is called on the copilot's own retrieved context
/// and the completion text and usage digested.
#[test]
fn dashboard_and_chat_completions_are_pinned() {
    let exp = exp();
    let copilot = exp.copilot(sim(ModelProfile::gpt4_sim()));
    let model = SimulatedModel::new(ModelProfile::gpt35_turbo_sim());
    let mut h = Fnv::new();
    for q in &exp.questions {
        let context = copilot
            .extractor()
            .retrieve(&q.text, 29)
            .into_iter()
            .map(|r| ContextItem {
                name: r.sample.name,
                text: r.sample.text,
                relevance: r.score,
            });
        for task in [TaskKind::GenerateDashboard, TaskKind::AnswerDirectly] {
            let prompt = PromptBuilder::new()
                .system("You are DIO copilot.")
                .context(context.clone())
                .examples(exp.exemplars.iter().take(3).cloned())
                .question(q.text.as_str())
                .task(task)
                .build(model.context_window(), 1000);
            let c = model
                .complete(&CompletionRequest::paper_defaults(prompt))
                .expect("the prompt fits the window");
            h.text(&c.text);
            h.word(c.usage.prompt_tokens as u64);
            h.word(c.usage.completion_tokens as u64);
        }
    }
    assert_pinned("dashboard and chat", h.0, 0x0cbc_731f_271b_8e92);
}
