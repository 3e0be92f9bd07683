//! Pins what the simulated model *says*: `ask_pins` holds tokens and
//! cents, this file holds an FNV-1a digest over `(query, numeric answer
//! bits, values, usage)` of the benchmark questions through every
//! system that prompts the model, and over the completion text of the
//! two task kinds no pipeline issues. The constants were computed at
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

/// All 200 questions through a copilot; the dashboard (on by default)
/// is part of what is pinned.
fn dio(mut copilot: DioCopilot) -> u64 {
    let exp = exp();
    let mut h = Fnv::new();
    for q in &exp.questions {
        let r = copilot.ask(&q.text, exp.world.eval_ts);
        h.answer(&r.query, r.numeric_answer, &r.values, r.usage);
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

/// Every pipeline that prompts the model, compared in one assertion
/// so a failure names each digest that moved.
#[test]
fn answers_are_pinned_through_every_pipeline() {
    let exp = exp();
    let two_stage = CopilotConfig {
        two_stage: true,
        ..CopilotConfig::default()
    };
    let broken = MalformedFirstTry(SimulatedModel::new(ModelProfile::gpt4_sim()));
    let got = [
        ("dio gpt-4", dio(exp.copilot(sim(ModelProfile::gpt4_sim())))),
        ("dio gpt-3.5", dio(exp.copilot(sim(ModelProfile::gpt35_turbo_sim())))),
        // curie's 2k window truncates the context: dropped items.
        ("dio curie", dio(exp.copilot(sim(ModelProfile::text_curie_sim())))),
        (
            "dio gpt-4 two-stage",
            dio(exp.copilot_with_config(sim(ModelProfile::gpt4_sim()), two_stage)),
        ),
        ("dio gpt-4 one repair round", dio(exp.copilot(Box::new(broken)))),
        ("din-sql", baseline(exp.dinsql(sim(ModelProfile::gpt4_sim())))),
        ("direct", baseline(exp.direct(sim(ModelProfile::gpt4_sim())))),
    ];
    let hex = |(name, d): (&'static str, u64)| (name, format!("{d:#018x}"));
    assert_eq!(got.map(hex), PIPELINES.map(hex));
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
    assert_eq!(h.0, DASHBOARD_AND_CHAT, "tasks: {:#018x}", h.0);
}

const PIPELINES: [(&str, u64); 7] = [
    ("dio gpt-4", 0xb5e0_d0e5_46cd_ea07),
    ("dio gpt-3.5", 0x4bd1_78ba_2653_7729),
    ("dio curie", 0x6efd_5714_c497_c5a0),
    ("dio gpt-4 two-stage", 0xe012_dff0_0900_51a6),
    ("dio gpt-4 one repair round", 0x861b_20d2_e4b4_4e99),
    ("din-sql", 0xa28c_89a6_45e8_a7e2),
    ("direct", 0xca9a_d66d_dd5f_9644),
];
const DASHBOARD_AND_CHAT: u64 = 0x0cbc_731f_271b_8e92;
