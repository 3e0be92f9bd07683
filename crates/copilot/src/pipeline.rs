//! The end-to-end DIO copilot pipeline.

use crate::answer::{CopilotResponse, RelevantMetric};
use crate::config::CopilotConfig;
use crate::error::CopilotError;
use crate::extractor::{ContextExtractor, Retrieved};
use crate::obs::{note_breaker_transition, register_zero_instruments};
use crate::recovery::{CircuitBreaker, DegradationLevel, RecoveryPolicy, RecoveryStats};
use crate::trace::PipelineTrace;
use dio_catalog::DomainDb;
use dio_dashboard::{generate_dashboard, PanelSpecHint, TimeRange};
use dio_feedback::{Contribution, IssueId, IssueTracker, TrackerError};
use dio_llm::{
    CompletionRequest, FewShotExample, FoundationModel, ModelProfile, ObservedModel, PromptBuilder,
    PromptPiece, SimulatedModel, TaskKind, TokenUsage,
};
use dio_obs::{Buckets, Budget, ObsHub, SpanContext, TraceStatus};
use dio_sandbox::{SafetyPolicy, Sandbox};
use dio_tsdb::MetricStore;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Builder for [`DioCopilot`].
pub struct CopilotBuilder {
    db: DomainDb,
    store: MetricStore,
    config: CopilotConfig,
    model: Option<Box<dyn FoundationModel>>,
    exemplars: Vec<FewShotExample>,
    policy: SafetyPolicy,
    obs: ObsHub,
}

impl CopilotBuilder {
    /// Start from a domain DB and a metrics store.
    pub fn new(db: DomainDb, store: MetricStore) -> Self {
        CopilotBuilder {
            db,
            store,
            config: CopilotConfig::default(),
            model: None,
            exemplars: Vec::new(),
            policy: SafetyPolicy::default(),
            obs: ObsHub::new(),
        }
    }

    /// Override the configuration.
    pub fn config(mut self, config: CopilotConfig) -> Self {
        self.config = config;
        self
    }

    /// Use a specific foundation model (defaults to the GPT-4
    /// simulation).
    pub fn model(mut self, model: Box<dyn FoundationModel>) -> Self {
        self.model = Some(model);
        self
    }

    /// Provide few-shot exemplars (the paper uses 20 expert tuples).
    pub fn exemplars(mut self, exemplars: Vec<FewShotExample>) -> Self {
        self.exemplars = exemplars;
        self
    }

    /// Override the sandbox policy.
    pub fn policy(mut self, policy: SafetyPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Share an observability hub (registry + tracer) with the copilot.
    /// Defaults to a fresh hub; pass one in to scrape the copilot's
    /// metrics from outside — e.g. for the self-observation loop.
    pub fn obs(mut self, obs: ObsHub) -> Self {
        self.obs = obs;
        self
    }

    /// Build the copilot (runs the offline embedding pass).
    pub fn build(self) -> DioCopilot {
        register_zero_instruments(self.obs.registry());
        let inner = self
            .model
            .unwrap_or_else(|| Box::new(SimulatedModel::new(ModelProfile::gpt4_sim())));
        let model = ObservedModel::new(inner, self.obs.registry().clone());
        let mut sandbox = Sandbox::new(self.store, self.policy);
        sandbox.attach_obs(self.obs.registry().clone());
        let knowledge = Knowledge::build(0, self.db, self.exemplars, &self.config);
        DioCopilot {
            published: Arc::new(RwLock::new(Published {
                knowledge: Arc::new(knowledge),
                tracker: IssueTracker::new(),
            })),
            breaker: Mutex::new(CircuitBreaker::new(&self.config.recovery)),
            sandbox,
            config: self.config,
            model: Arc::new(model),
            obs: self.obs,
        }
    }
}

/// The assembled copilot, asked through `&self` from any number of
/// threads at once.
///
/// The expert knowledge — the domain DB, the embedded retrieval index
/// with its rendered context lines, the few-shot pool and its rendered
/// prompt pieces — is one immutable [`Knowledge`] value, published in a
/// cell beside the issue tracker. An ask reads one snapshot of it, taking
/// the read lock only to clone the `Arc`; [`DioCopilot::resolve_issue`]
/// publishes the next value under the write lock. Clones share that
/// cell, the metric store, the model and the hub, so an issue raised
/// through one resolves through any other. The circuit breaker is the
/// one mutable state a copilot keeps for itself, behind a mutex held
/// only to consult or update it, never across a model call.
pub struct DioCopilot {
    config: CopilotConfig,
    /// The latest knowledge and the issues raised against it, shared
    /// with every clone.
    published: Arc<RwLock<Published>>,
    model: Arc<dyn FoundationModel>,
    sandbox: Sandbox,
    breaker: Mutex<CircuitBreaker>,
    obs: ObsHub,
}

/// The cell a copilot shares with its clones: the latest knowledge and
/// the issue tracker, changed together under one lock.
struct Published {
    knowledge: Arc<Knowledge>,
    tracker: IssueTracker,
}

/// What experts teach the copilot, as one value: replaced whole when an
/// issue is resolved, never changed in place, so an ask that holds one
/// reads a catalog, an index and prompt pieces that agree.
pub struct Knowledge {
    /// Number of expert-knowledge updates this value is the result of.
    /// Serving-tier caches stamp their entries with it.
    generation: u64,
    db: DomainDb,
    extractor: Arc<ContextExtractor>,
    exemplars: Vec<FewShotExample>,
    /// One prompt block per exemplar and the lines of the first four
    /// expert functions, rendered and priced with the value, never
    /// during an ask.
    example_pieces: Vec<PromptPiece>,
    function_pieces: Vec<PromptPiece>,
}

impl Knowledge {
    /// Embed `db` for retrieval and render the prompt pieces.
    fn build(
        generation: u64,
        db: DomainDb,
        exemplars: Vec<FewShotExample>,
        config: &CopilotConfig,
    ) -> Self {
        let (tuned, mode) = (config.domain_embedder, config.retrieval);
        Knowledge {
            generation,
            extractor: Arc::new(ContextExtractor::build_with_mode(&db, tuned, mode)),
            example_pieces: exemplars.iter().map(PromptPiece::example).collect(),
            function_pieces: db
                .functions()
                .take(4)
                .map(|f| PromptPiece::item(&f.name, &first_sentence(&f.description)))
                .collect(),
            db,
            exemplars,
        }
    }

    /// Number of expert-knowledge updates this value is the result of.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The context extractor over this value's domain DB.
    pub fn extractor(&self) -> &ContextExtractor {
        &self.extractor
    }
}

/// One ask: the question, when to evaluate it, and how much of the
/// pipeline this request may spend. [`DioCopilot::ask`] is
/// [`AskRequest::new`] unchanged; a serving tier fills in the rest per
/// request (its brownout ladder lowers the three fidelity fields under
/// load). The copilot stores none of it.
#[derive(Clone)]
pub struct AskRequest<'a> {
    /// The natural-language question.
    pub question: &'a str,
    /// Evaluation timestamp (ms) the question is asked as of.
    pub ts: i64,
    /// The knowledge snapshot to ask from ([`DioCopilot::knowledge`]);
    /// `None` asks from the latest published. A serving worker passes
    /// the snapshot it keyed its caches with and embedded the question
    /// by, so the three agree.
    pub knowledge: Option<&'a Knowledge>,
    /// A precomputed question embedding, so retrieval skips
    /// re-embedding (the serving layer's embedding cache). It must come
    /// from the extractor of the knowledge asked from
    /// ([`ContextExtractor::embed_question`]).
    pub qvec: Option<&'a dio_embed::Vector>,
    /// A caller-owned trace: every pipeline stage span parents under
    /// it and the caller finishes the trace (the serving tier owns the
    /// request trace: queue wait, cache probes, and this ask all hang
    /// off one root). With `None` the copilot opens and finishes its
    /// own trace, stamping its status from the outcome.
    pub parent: Option<SpanContext>,
    /// Deadline and cancellation for this ask.
    pub budget: Budget,
    /// Upper bound on the retrieval top-k; the configured top-k
    /// applies when it is smaller.
    pub top_k_cap: usize,
    /// Upper bound on repair rounds; the recovery policy's applies
    /// when it is smaller.
    pub repair_round_cap: usize,
    /// `false` spends no model call at all: every stage that would
    /// consult the model takes the breaker-open path (generation lands
    /// on the degraded direct-lookup fallback) while the real breaker
    /// — including any cooldown in flight — is left as it was.
    pub model: bool,
    /// The model this ask calls; `None` calls the copilot's own. A
    /// serving worker passes its own (its fault schedule, its gateway
    /// handle), wrapped for observation once, when it is spawned.
    pub llm: Option<&'a dyn FoundationModel>,
}

impl<'a> AskRequest<'a> {
    /// The full-fidelity request: embed the question here, own the
    /// trace, no deadline, the configured top-k and repair rounds, the
    /// model on.
    pub fn new(question: &'a str, ts: i64) -> Self {
        AskRequest {
            question,
            ts,
            knowledge: None,
            qvec: None,
            parent: None,
            budget: Budget::unbounded(),
            top_k_cap: usize::MAX,
            repair_round_cap: usize::MAX,
            model: true,
            llm: None,
        }
    }
}

/// What one ask carries from stage to stage, so the stages take it
/// instead of a dozen loose arguments: the request, the knowledge and
/// model it reads, where its spans go, and what it has spent so far.
struct Ask<'a> {
    req: AskRequest<'a>,
    knowledge: &'a Knowledge,
    model: &'a dyn FoundationModel,
    obs: ObsHub,
    /// The span every stage parents under (the request's, or the root
    /// of the trace this ask opened).
    span: SpanContext,
    ask_start: Instant,
    usage: TokenUsage,
    stats: RecoveryStats,
    /// The model's context window and the completion room reserved in
    /// it, for every prompt this ask builds.
    window: usize,
    reserved: usize,
}

impl Ask<'_> {
    /// Time `f` as a child span named `stage`, and observe the duration
    /// in the per-stage latency histogram. `f` receives the stage
    /// span's own context so it can parent further children (the
    /// execute stage hands its context to the store resolver, which
    /// records one span per shard touched).
    fn stage<T>(&mut self, stage: &str, f: impl FnOnce(&mut Self, &SpanContext) -> T) -> T {
        let ctx = self.obs.tracer().child_of(&self.span);
        let start_offset = self.obs.tracer().clock_micros(&ctx);
        let start = Instant::now();
        let out = f(self, &ctx);
        let micros = dio_obs::micros_u64(start.elapsed());
        self.obs
            .tracer()
            .record_span(&ctx, stage, start_offset, micros, &[]);
        self.obs
            .registry()
            .histogram_with(
                crate::obs::STAGE_DURATION_NAME,
                crate::obs::STAGE_DURATION_HELP,
                &Buckets::latency_micros(),
                &[("stage", stage)],
            )
            .observe(micros as f64);
        out
    }
}

/// Outcome of the execute-with-repair stage.
struct ExecResolution {
    /// The query that was last attempted.
    query: String,
    /// Canonical form, when a query actually executed.
    canonical: Option<String>,
    numeric_answer: Option<f64>,
    values: Vec<f64>,
    error: Option<CopilotError>,
    degradation: DegradationLevel,
}

impl ExecResolution {
    /// The resolution of an ask whose budget lapsed mid-execution: no
    /// answer, no fallback, the deadline error carried as-is.
    fn deadline(query: String, error: CopilotError) -> Self {
        ExecResolution {
            query,
            canonical: None,
            numeric_answer: None,
            values: Vec::new(),
            error: Some(error),
            degradation: DegradationLevel::Full,
        }
    }
}

impl Clone for DioCopilot {
    /// A second copilot over the same published knowledge and issue
    /// tracker, metric store, model and hub. The breaker is copied, so
    /// each copilot trips on its own.
    fn clone(&self) -> Self {
        DioCopilot {
            config: self.config.clone(),
            published: Arc::clone(&self.published),
            model: Arc::clone(&self.model),
            sandbox: self.sandbox.clone(),
            breaker: Mutex::new(self.breaker().clone()),
            obs: self.obs.clone(),
        }
    }
}

impl DioCopilot {
    /// The latest published knowledge: a snapshot that stays as it is
    /// whatever is resolved after it was taken. Pass it as
    /// [`AskRequest::knowledge`] to ask from it.
    pub fn knowledge(&self) -> Arc<Knowledge> {
        Arc::clone(&self.published().knowledge)
    }

    /// A copy of the issue tracker as it stands now.
    pub fn tracker(&self) -> IssueTracker {
        self.published().tracker.clone()
    }

    /// The query engine (for rendering dashboards etc.).
    pub fn engine(&self) -> &dio_promql::Engine {
        self.sandbox.engine()
    }

    /// The context extractor of the latest published knowledge.
    pub fn extractor(&self) -> Arc<ContextExtractor> {
        Arc::clone(&self.knowledge().extractor)
    }

    /// The model in use.
    pub fn model_name(&self) -> &str {
        self.model.name()
    }

    /// The model-call circuit breaker (state persists across asks). A
    /// panic while it was held left it whole: every update is one call.
    fn breaker(&self) -> MutexGuard<'_, CircuitBreaker> {
        self.breaker.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The published cell. A panic under the write lock leaves the old
    /// value in place, so a poisoned lock still holds a whole one.
    fn published(&self) -> RwLockReadGuard<'_, Published> {
        self.published
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The published cell, locked for a writer.
    fn published_mut(&self) -> RwLockWriteGuard<'_, Published> {
        self.published
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The observability hub: metrics registry + span tracer. Scrape
    /// `obs().registry()` with [`dio_obs::ObsScraper`] to feed the
    /// copilot's own telemetry back into a queryable store.
    pub fn obs(&self) -> &ObsHub {
        &self.obs
    }

    /// Route the sandbox's store lookups through a
    /// [`dio_sandbox::StoreResolver`] — the hook a sharded data plane
    /// (cluster router) uses to serve this pipeline from many shard
    /// stores instead of the resident one. Clones inherit the resolver,
    /// so a serving pool spawned from this copilot is cluster-backed
    /// end to end.
    pub fn attach_store_resolver(&mut self, resolver: Arc<dyn dio_sandbox::StoreResolver>) {
        self.sandbox.attach_store_resolver(resolver);
    }

    /// Install a new recovery policy and reset the circuit breaker to
    /// its closed state.
    pub fn set_recovery(&mut self, policy: RecoveryPolicy) {
        self.breaker = Mutex::new(CircuitBreaker::new(&policy));
        self.config.recovery = policy;
    }

    /// Answer a question, evaluating data at timestamp `ts`:
    /// [`DioCopilot::ask_with`] on the defaults of [`AskRequest::new`].
    pub fn ask(&self, question: &str, ts: i64) -> CopilotResponse {
        self.ask_with(AskRequest::new(question, ts))
    }

    /// Answer one [`AskRequest`] — the only way into the pipeline.
    ///
    /// The model and sandbox are both treated as fallible: transient
    /// model failures are retried (bounded, recorded backoff), sandbox
    /// rejections trigger repair rounds under
    /// [`TaskKind::RepairPromql`], and when recovery is exhausted — or
    /// the circuit breaker is open, or the request switched the model
    /// off — the copilot degrades to a direct lookup of the top
    /// retrieved metric rather than returning nothing. See
    /// [`RecoveryPolicy`].
    ///
    /// The request's [`Budget`] is checked cooperatively between
    /// pipeline stages, before every model call, and before every retry
    /// or repair round; each model call carries a per-call timeout
    /// derived from the remaining budget, and recorded backoff
    /// intervals are capped by it. When the budget lapses (deadline
    /// passed or the token cancelled) the ask aborts with
    /// [`CopilotError::DeadlineExceeded`] — no degraded fallback, no
    /// further model calls — and a standalone trace closes with
    /// [`TraceStatus::DeadlineExceeded`], its own outcome class.
    ///
    /// Nothing the request asks for is stored on the copilot: the next
    /// ask starts from the configured fidelity whatever this one did,
    /// and however it ended. Only the circuit breaker carries over.
    pub fn ask_with(&self, req: AskRequest<'_>) -> CopilotResponse {
        let obs = self.obs.clone();
        let span = req
            .parent
            .unwrap_or_else(|| obs.tracer().begin_trace(req.question));
        let latest;
        let knowledge = match req.knowledge {
            Some(knowledge) => knowledge,
            None => {
                latest = self.knowledge();
                &latest
            }
        };
        let model = req.llm.unwrap_or(self.model.as_ref());
        let window = model.context_window();
        let mut ask = Ask {
            knowledge,
            model,
            span,
            ask_start: Instant::now(),
            usage: TokenUsage::default(),
            stats: RecoveryStats::default(),
            window,
            // Reserve completion room, but never starve the prompt on a
            // small-window model (text-curie-001 still needs its
            // truncated context to see *something*).
            reserved: self.config.max_output_tokens.min(window / 4),
            obs,
            req,
        };
        ask.obs
            .registry()
            .counter(crate::obs::ASKS_NAME, crate::obs::ASKS_HELP)
            .inc();
        let (question, ts) = (ask.req.question, ask.req.ts);

        // Dead on arrival: a request whose budget already lapsed (queue
        // wait ate it, or the caller cancelled) does no work at all.
        if ask.req.budget.expired() {
            return self.deadline_abort(ask, String::new(), "retrieve");
        }

        // Stage 1: context extraction (offline index, online search).
        // A floor of 1 under the request's cap keeps retrieval (and
        // with it the degraded fallback) functional.
        let top_k = self.config.top_k.min(ask.req.top_k_cap.max(1));
        let (hits, retrieval) = ask.stage("retrieve", |ask, _| {
            ask.knowledge
                .extractor
                .retrieve_with_stats_vec(question, ask.req.qvec, top_k)
        });
        ask.obs
            .registry()
            .counter(crate::obs::CANDIDATES_NAME, crate::obs::CANDIDATES_HELP)
            .add(retrieval.candidates_scanned as f64);
        {
            let sim = ask.obs.registry().histogram(
                crate::obs::SIMILARITY_NAME,
                crate::obs::SIMILARITY_HELP,
                &Buckets::unit_fractions(),
            );
            for h in &hits {
                sim.observe(f64::from(h.score));
            }
        }

        // Budget checkpoint between retrieval and generation: the model
        // stages are the expensive ones, so lapse here rather than
        // start a call that cannot finish in time.
        if ask.req.budget.expired() {
            return self.deadline_abort(ask, String::new(), "generate");
        }

        // Stage 2: relevant-metric identification (§3.2) and few-shot
        // code generation (§3.3) in one prompt over the retrieved
        // context: one inference, within §4.2.5's cost envelope.
        let gen_request =
            self.codegen_request(&ask, SYSTEM_PROMPT, &hits, TaskKind::GeneratePromql);
        let generated = self.generate(&mut ask, &gen_request);

        // Stage 3: sandboxed execution with self-repair. A model error
        // is NOT executed as a query (it used to be pasted in as
        // `# model error: …`); it goes straight to the recovery path.
        // Each sandbox execution and repair re-generation records its
        // own span, so repair rounds are visible per-invocation.
        let ExecResolution {
            query,
            canonical,
            numeric_answer,
            values,
            error,
            degradation,
        } = self.execute_with_repair(&mut ask, generated, &hits);
        if let Some(CopilotError::DeadlineExceeded { stage }) = &error {
            let stage = stage.clone();
            return self.deadline_abort(ask, query, &stage);
        }
        ask.stats.degraded = degradation == DegradationLevel::Degraded;

        // Relevant metrics for the rendered response: those the final
        // query references. It is parsed once, for this and for the
        // explanation.
        let executed = canonical.is_some();
        let final_query = canonical.unwrap_or(query);
        let parsed = dio_promql::parse(&final_query);
        let shown = parsed
            .as_ref()
            .map(|e| e.metric_names())
            .unwrap_or_default();
        let relevant_metrics: Vec<RelevantMetric> = shown
            .iter()
            .filter_map(|n| {
                knowledge.db.metric(n).map(|m| RelevantMetric {
                    name: m.name.clone(),
                    description: first_sentence(&m.description),
                })
            })
            .collect();

        // Stage 4: dashboard generation.
        let dashboard = if self.config.generate_dashboards {
            let hints: Vec<PanelSpecHint> = shown
                .iter()
                .filter_map(|n| knowledge.db.metric(n))
                .map(|m| PanelSpecHint {
                    name: m.name.clone(),
                    title: format!("{} ({})", m.procedure_display, m.name),
                    is_counter: m.counter_type.is_counter(),
                })
                .collect();
            let range = TimeRange::last(ts, self.config.dashboard_span_ms, 60);
            Some(ask.stage("dashboard", |_, _| {
                generate_dashboard(
                    question,
                    &hints,
                    executed.then_some(final_query.as_str()),
                    range,
                )
            }))
        } else {
            None
        };

        let degradation_slug = degradation.to_string();
        ask.obs
            .registry()
            .counter_with(
                crate::obs::ANSWERS_NAME,
                crate::obs::ANSWERS_HELP,
                &[("degradation", &degradation_slug)],
            )
            .inc();
        ask.obs
            .tracer()
            .event(&ask.span, "answered", &[("degradation", &degradation_slug)]);
        let status = crate::answer::trace_status(error.as_ref(), degradation);
        let (usage, cost_cents, trace) = self.wind_down(ask, status);

        CopilotResponse {
            question: question.to_string(),
            relevant_metrics,
            explanation: dio_promql::explain_parsed(&parsed),
            query: final_query,
            numeric_answer,
            values,
            error,
            degradation,
            dashboard,
            usage,
            cost_cents,
            trace,
        }
    }

    /// What every ask does last, answered or aborted: observe its
    /// duration, bill the tokens it spent, project its spans into a
    /// [`PipelineTrace`] and — for a standalone ask — close the trace
    /// it opened as `status`. Under a serving tier the caller owns the
    /// root and stamps the status after its own bookkeeping (cache
    /// fill, reply).
    fn wind_down(&self, ask: Ask<'_>, status: TraceStatus) -> (TokenUsage, f64, PipelineTrace) {
        ask.obs
            .registry()
            .histogram(
                crate::obs::ASK_DURATION_NAME,
                crate::obs::ASK_DURATION_HELP,
                &Buckets::latency_micros(),
            )
            .observe(dio_obs::micros_u64(ask.ask_start.elapsed()) as f64);
        let cost_cents = ask.model.pricing().cost_cents(ask.usage);
        let trace =
            PipelineTrace::from_spans(&ask.obs.tracer().spans(ask.span.trace_id), ask.stats);
        if ask.req.parent.is_none() {
            ask.obs.tracer().finish_trace(&ask.span, status);
        }
        (ask.usage, cost_cents, trace)
    }

    /// Wind down an ask whose budget lapsed: count it (labelled by the
    /// stage that observed the lapse), stamp a `deadline_exceeded`
    /// event carrying the trace-clock offset, and close a standalone
    /// trace as [`TraceStatus::DeadlineExceeded`], its own outcome
    /// class. No answer counter and no `answered` event: a deadline
    /// abort is not an answer.
    fn deadline_abort(&self, ask: Ask<'_>, query: String, stage: &str) -> CopilotResponse {
        ask.obs
            .registry()
            .counter_with(
                crate::obs::DEADLINE_NAME,
                crate::obs::DEADLINE_HELP,
                &[("stage", stage)],
            )
            .inc();
        let at = ask.obs.tracer().clock_micros(&ask.span).to_string();
        ask.obs.tracer().event(
            &ask.span,
            "deadline_exceeded",
            &[("stage", stage), ("at_micros", &at)],
        );
        let question = ask.req.question.to_string();
        let (usage, cost_cents, trace) = self.wind_down(ask, TraceStatus::DeadlineExceeded);
        CopilotResponse {
            question,
            relevant_metrics: Vec::new(),
            explanation: String::new(),
            query,
            numeric_answer: None,
            values: Vec::new(),
            error: Some(CopilotError::DeadlineExceeded {
                stage: stage.to_string(),
            }),
            degradation: DegradationLevel::Full,
            dashboard: None,
            usage,
            cost_cents,
            trace,
        }
    }

    /// The code-generation request, first try and repair alike: same
    /// context, exemplars, expert functions and question; only the
    /// system section and the task differ. Every piece is borrowed as
    /// it was rendered ahead of the ask. The prompt fits the ask's
    /// window budget, and the call's timeout is whatever the request
    /// budget has left (unbounded: no cap).
    fn codegen_request(
        &self,
        ask: &Ask<'_>,
        system: impl Into<String>,
        hits: &[Retrieved],
        task: TaskKind,
    ) -> CompletionRequest {
        let knowledge = ask.knowledge;
        let examples = knowledge.example_pieces.iter();
        let prompt = PromptBuilder::new()
            .system(system)
            .context_pieces(hits.iter().map(|h| (knowledge.extractor.line(h), h.score)))
            .function_pieces(&knowledge.function_pieces)
            .example_pieces(examples.take(self.config.max_exemplars))
            .question(ask.req.question)
            .task(task);
        CompletionRequest {
            prompt: prompt.build(ask.window, ask.reserved),
            max_tokens: self.config.max_output_tokens,
            temperature: self.config.temperature,
            timeout_ms: ask.req.budget.remaining().map(timeout_ms),
        }
    }

    /// One `generate` stage: a model call under the recovery policy,
    /// yielding the trimmed query text.
    fn generate(
        &self,
        ask: &mut Ask<'_>,
        request: &CompletionRequest,
    ) -> Result<String, CopilotError> {
        ask.stage("generate", |ask, _| self.call_model(ask, request))
            .map(|text| text.trim().to_string())
    }

    /// Place one model call under the recovery policy: the circuit
    /// breaker gates the call, transient failures are retried up to the
    /// policy bound, and the deterministic backoff schedule is recorded
    /// (never slept). The request budget gates every attempt — a
    /// lapsed budget aborts before the model is touched — and caps each
    /// recorded backoff interval by the time actually left. Every
    /// admitted call stamps a `model_call` event carrying its
    /// trace-clock offset, so a post-mortem can prove no call started
    /// after the deadline.
    fn call_model(
        &self,
        ask: &mut Ask<'_>,
        request: &CompletionRequest,
    ) -> Result<String, CopilotError> {
        let mut retry = 0usize;
        loop {
            if ask.req.budget.expired() {
                return Err(CopilotError::DeadlineExceeded {
                    stage: "model".into(),
                });
            }
            // A model-off ask is refused the way an open breaker
            // refuses, without consulting (or moving) the real one.
            let admitted = ask.req.model && {
                let mut breaker = self.breaker();
                let (gate, admitted) = (breaker.state(), breaker.allow());
                let now = breaker.state();
                drop(breaker);
                note_breaker_transition(&ask.obs, &ask.span, gate, now);
                admitted
            };
            if !admitted {
                return Err(CopilotError::ModelUnavailable {
                    message: "circuit breaker open; model call skipped".into(),
                    attempts: ask.stats.attempts,
                });
            }
            ask.stats.attempts += 1;
            let at = ask.obs.tracer().clock_micros(&ask.span).to_string();
            ask.obs
                .tracer()
                .event(&ask.span, "model_call", &[("at_micros", &at)]);
            let result = ask.model.complete(request);
            let mut breaker = self.breaker();
            let before = breaker.state();
            if result.is_ok() {
                breaker.record_success();
            } else if breaker.record_failure() {
                ask.stats.breaker_trips += 1;
            }
            let now = breaker.state();
            drop(breaker);
            note_breaker_transition(&ask.obs, &ask.span, before, now);
            let e = match result {
                Ok(c) => {
                    ask.usage.add(c.usage);
                    return Ok(c.text);
                }
                Err(e) => e,
            };
            let policy = &self.config.recovery;
            if !(policy.enabled && e.is_transient() && retry < policy.max_retries) {
                return Err(CopilotError::from_model(&e, ask.stats.attempts));
            }
            ask.stats.retries += 1;
            // Backoff is recorded, never slept; cap the recorded
            // interval by the budget actually left so the schedule
            // stays honest about what a real sleep could have been.
            let backoff = ask
                .req
                .budget
                .cap(std::time::Duration::from_millis(policy.backoff_ms(retry)))
                .as_millis() as u64;
            ask.stats.backoff_schedule_ms.push(backoff);
            ask.obs
                .registry()
                .counter(crate::obs::RETRIES_NAME, crate::obs::RETRIES_HELP)
                .inc();
            ask.obs
                .registry()
                .counter(crate::obs::BACKOFF_NAME, crate::obs::BACKOFF_HELP)
                .add(backoff as f64);
            ask.obs.tracer().event(
                &ask.span,
                "model_retry",
                &[("backoff_ms", &backoff.to_string())],
            );
            retry += 1;
        }
    }

    /// Execute the generated query, running bounded repair rounds on
    /// sandbox rejection and falling back to a degraded direct metric
    /// lookup when recovery is exhausted (or generation itself failed).
    fn execute_with_repair(
        &self,
        ask: &mut Ask<'_>,
        generated: Result<String, CopilotError>,
        hits: &[Retrieved],
    ) -> ExecResolution {
        let mut query = match generated {
            Ok(q) => q,
            // A lapsed budget is not a failure to recover from: running
            // the degraded fallback would be *more* work past the
            // deadline. Surface it untouched.
            Err(e @ CopilotError::DeadlineExceeded { .. }) => {
                return ExecResolution::deadline(String::new(), e);
            }
            // A model failure is not executed as a fake
            // `# model error: …` query: it skips execution and degrades.
            Err(e) => return self.degraded_fallback(ask, String::new(), e, hits),
        };

        let enabled = self.config.recovery.enabled;
        let max_rounds = self
            .config
            .recovery
            .max_repair_rounds
            .min(ask.req.repair_round_cap);
        let mut rounds = 0usize;
        let mut storage_retries = 0usize;
        let error = loop {
            if ask.req.budget.expired() {
                return ExecResolution::deadline(
                    query,
                    CopilotError::DeadlineExceeded {
                        stage: "execute".into(),
                    },
                );
            }
            // The execute span's own context rides into the sandbox so
            // the store resolver can hang one child span per shard it
            // touches under this invocation.
            let executed = ask.stage("execute", |ask, sctx| {
                self.sandbox
                    .execute_traced(&query, ask.req.ts, Some((ask.obs.tracer(), sctx)))
            });
            let sandbox_err = match executed {
                Ok(out) => {
                    return ExecResolution {
                        query,
                        canonical: Some(out.canonical_query),
                        numeric_answer: out.value.as_scalar_like(),
                        values: out.value.numeric_values(),
                        error: None,
                        degradation: if rounds == 0 {
                            DegradationLevel::Full
                        } else {
                            DegradationLevel::Repaired
                        },
                    };
                }
                Err(e) => e,
            };
            // A storage fault is the store's failure, not the query's:
            // retry the same query unchanged (bounded) instead of
            // burning a model repair round on it.
            if sandbox_err.is_storage_fault() {
                ask.stats.data_faults += 1;
                ask.obs
                    .registry()
                    .counter_with(
                        crate::obs::DATA_FAULTS_NAME,
                        crate::obs::DATA_FAULTS_HELP,
                        &[("layer", "tsdb"), ("kind", "transient_io")],
                    )
                    .inc();
                ask.obs.tracer().event(
                    &ask.span,
                    "storage_retry",
                    &[("error", &sandbox_err.to_string())],
                );
                if enabled && storage_retries < self.config.recovery.max_retries {
                    storage_retries += 1;
                    continue;
                }
                break CopilotError::from_sandbox(&sandbox_err);
            }
            if !enabled || rounds >= max_rounds {
                break CopilotError::from_sandbox(&sandbox_err);
            }
            rounds += 1;
            ask.stats.repairs += 1;
            ask.obs
                .registry()
                .counter(crate::obs::REPAIRS_NAME, crate::obs::REPAIRS_HELP)
                .inc();
            ask.obs.tracer().event(
                &ask.span,
                "repair_round",
                &[
                    ("round", &rounds.to_string()),
                    ("error", &sandbox_err.to_string()),
                ],
            );
            // Re-prompt with the failed query and the sandbox's
            // structured hint riding in the system section; the
            // question/context/examples stay identical.
            let hint = sandbox_err.repair_hint(&query);
            let repair_request = self.codegen_request(
                ask,
                format!(
                    "{SYSTEM_PROMPT}\nThe previous query failed in the sandbox.\n\
                     Failed query: {query}\nSandbox: {sandbox_err}\nFix: {hint}"
                ),
                hits,
                TaskKind::RepairPromql,
            );
            match self.generate(ask, &repair_request) {
                Ok(fixed) => query = fixed,
                Err(model_err) => break model_err,
            }
        };

        if matches!(error, CopilotError::DeadlineExceeded { .. }) {
            // Same rule as above: the deadline forbids the fallback.
            return ExecResolution::deadline(query, error);
        }
        if enabled {
            self.degraded_fallback(ask, query, error, hits)
        } else {
            // Ablation baseline: surface the failure as-is.
            ExecResolution {
                query,
                canonical: None,
                numeric_answer: None,
                values: Vec::new(),
                error: Some(error),
                degradation: DegradationLevel::Full,
            }
        }
    }

    /// The last line of defence: answer with an instant-vector lookup
    /// of the best retrieved metric that actually executes, labelled
    /// [`DegradationLevel::Degraded`] and carrying the error that
    /// forced the fallback.
    fn degraded_fallback(
        &self,
        ask: &mut Ask<'_>,
        failed_query: String,
        error: CopilotError,
        hits: &[Retrieved],
    ) -> ExecResolution {
        ask.stats.degraded = true;
        ask.obs.tracer().event(
            &ask.span,
            "degraded_fallback",
            &[("error", &error.to_string())],
        );
        ask.stage("fallback", |ask, sctx| {
            for h in hits.iter().take(5) {
                let candidate = h.sample.name.clone();
                if let Ok(out) = self.sandbox.execute_traced(
                    &candidate,
                    ask.req.ts,
                    Some((ask.obs.tracer(), sctx)),
                ) {
                    return ExecResolution {
                        query: candidate,
                        canonical: Some(out.canonical_query),
                        numeric_answer: out.value.as_scalar_like(),
                        values: out.value.numeric_values(),
                        error: Some(error),
                        degradation: DegradationLevel::Degraded,
                    };
                }
            }
            ExecResolution {
                query: failed_query,
                canonical: None,
                numeric_answer: None,
                values: Vec::new(),
                error: Some(CopilotError::NoData {
                    message: format!("degraded fallback found no executable metric ({error})"),
                }),
                degradation: DegradationLevel::Degraded,
            }
        })
    }

    /// File an expert-help issue for a response (the raise-hand button).
    pub fn request_expert_help(&self, response: &CopilotResponse) -> IssueId {
        self.published_mut().tracker.raise_hand(
            &response.question,
            response
                .relevant_metrics
                .iter()
                .map(|m| m.name.clone())
                .collect(),
            &response.render(),
        )
    }

    /// Resolve an issue with an expert contribution. The contribution
    /// merges into the domain DB (attributed), exemplars extend the
    /// few-shot pool, and the retrieval index (with its context lines)
    /// and the prompt pieces are rebuilt into the next knowledge value,
    /// built from the published one. The next ask of this copilot or of
    /// any clone reads it; a snapshot taken before keeps the old value.
    pub fn resolve_issue(
        &self,
        id: IssueId,
        expert_id: &str,
        contribution: Contribution,
    ) -> Result<(), TrackerError> {
        // Built under the write lock, so two writers cannot lose each
        // other's update.
        let mut published = self.published_mut();
        let mut db = published.knowledge.db.clone();
        let exemplar = published
            .tracker
            .resolve(id, expert_id, contribution, &mut db)?;
        let mut exemplars = published.knowledge.exemplars.clone();
        if let Some((question, metrics, promql)) = exemplar {
            exemplars.push(FewShotExample {
                question,
                metrics,
                promql,
            });
        }
        let generation = published.knowledge.generation + 1;
        published.knowledge = Arc::new(Knowledge::build(generation, db, exemplars, &self.config));
        Ok(())
    }
}

/// System prompt of every code-generation request.
const SYSTEM_PROMPT: &str = "You are DIO copilot, a natural language interface for retrieval \
and analytics tasks on 5G operator data. Use only metrics from CONTEXT. Answer with PromQL.";

/// A model call's timeout in whole milliseconds, rounded up: a budget
/// with any time left must not reach the model as `Some(0)`, which
/// means "already lapsed" to the gateway and the simulated model.
fn timeout_ms(left: std::time::Duration) -> u64 {
    u64::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(u64::MAX)
}

/// First sentence of a description (keeps prompts within the paper's
/// cost envelope while preserving the discriminative tokens).
pub(crate) fn first_sentence(text: &str) -> String {
    match text.find(". ") {
        Some(i) => text[..=i].to_string(),
        None => text.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_catalog::MetricRole;
    use dio_catalog::{generate_catalog, CatalogConfig};
    use dio_tsdb::{Labels, SeriesSpec, SynthConfig, Synthesizer};

    /// A small world: compact catalog + synthesised data for a handful
    /// of procedures.
    fn world() -> (DomainDb, MetricStore, i64) {
        let catalog = generate_catalog(&CatalogConfig {
            slice_variants: false,
            sbi_counters: false,
            ..CatalogConfig::default()
        });
        let synth_cfg = SynthConfig {
            start_ms: 0,
            end_ms: 2 * 3600 * 1000,
            step_ms: 60_000,
        };
        let mut store = MetricStore::new();
        let synth = Synthesizer::new(synth_cfg);
        let mut specs = Vec::new();
        for m in &catalog.metrics {
            if m.nf != dio_catalog::NetworkFunction::Amf {
                continue;
            }
            let labels = Labels::from_pairs([("__name__", m.name.as_str()), ("instance", "amf-0")]);
            let seed = 1000;
            let spec = match m.role {
                MetricRole::ActiveGauge => SeriesSpec::gauge(labels, m.traffic.base_rate, seed),
                _ => SeriesSpec::counter(labels, m.traffic.base_rate.max(0.01), seed),
            };
            specs.push(spec);
        }
        synth.populate(&specs, &mut store);
        (DomainDb::from_catalog(catalog), store, 2 * 3600 * 1000)
    }

    fn exemplars() -> Vec<FewShotExample> {
        vec![
            FewShotExample {
                question: "What is the paging success rate at the AMF?".into(),
                metrics: vec![
                    "amfcc_n2_paging_success".into(),
                    "amfcc_n2_paging_attempt".into(),
                ],
                promql: "100 * sum(amfcc_n2_paging_success) / sum(amfcc_n2_paging_attempt)".into(),
            },
            FewShotExample {
                question: "How many service requests did the AMF handle?".into(),
                metrics: vec!["amfcc_n1_service_request_attempt".into()],
                promql: "sum(amfcc_n1_service_request_attempt)".into(),
            },
            FewShotExample {
                question: "How many authentication procedures per second is the AMF running?"
                    .into(),
                metrics: vec!["amfsec_n1_authentication_attempt".into()],
                promql: "sum(rate(amfsec_n1_authentication_attempt[5m]))".into(),
            },
        ]
    }

    fn copilot() -> (DioCopilot, i64) {
        let (db, store, ts) = world();
        (
            CopilotBuilder::new(db, store)
                .exemplars(exemplars())
                .build(),
            ts,
        )
    }

    #[test]
    fn answers_count_question_numerically() {
        let (cp, ts) = copilot();
        let r = cp.ask(
            "How many initial registration attempts did the AMF handle?",
            ts,
        );
        assert!(
            r.query.contains("amfcc_n1_initial_registration_attempt"),
            "query: {}",
            r.query
        );
        assert!(r.error.is_none(), "error: {:?}", r.error);
        let v = r.numeric_answer.expect("numeric answer");
        assert!(v > 0.0);
        assert!(r.cost_cents > 0.0);
        assert_eq!(r.trace.stages.len(), 4);
    }

    #[test]
    fn answers_success_rate_with_ratio_query() {
        let (cp, ts) = copilot();
        let r = cp.ask(
            "What is the initial registration procedure success rate at the AMF?",
            ts,
        );
        assert!(r.query.contains("100 *"), "query: {}", r.query);
        assert!(r.query.contains("_success"), "query: {}", r.query);
        assert!(r.query.contains("_attempt"), "query: {}", r.query);
        let v = r.numeric_answer.expect("numeric answer");
        // Synthetic success counters share the attempt seed, so the
        // rate is a plausible percentage.
        assert!((0.0..=100.0).contains(&v), "rate {v}");
    }

    #[test]
    fn response_lists_relevant_metrics_with_descriptions() {
        let (cp, ts) = copilot();
        let r = cp.ask("How many paging attempts were there?", ts);
        assert!(!r.relevant_metrics.is_empty());
        assert!(r.relevant_metrics[0].description.contains("The"));
        let rendered = r.render();
        assert!(rendered.contains("Relevant metrics"));
    }

    #[test]
    fn dashboard_is_generated_when_enabled() {
        let (cp, ts) = copilot();
        let r = cp.ask("How many authentication requests per second?", ts);
        let d = r.dashboard.expect("dashboard");
        assert!(!d.panels.is_empty());
    }

    #[test]
    fn dashboards_can_be_disabled() {
        let (db, store, ts) = world();
        let cp = CopilotBuilder::new(db, store)
            .config(CopilotConfig {
                generate_dashboards: false,
                ..CopilotConfig::default()
            })
            .exemplars(exemplars())
            .build();
        let r = cp.ask("How many paging attempts were there?", ts);
        assert!(r.dashboard.is_none());
    }

    #[test]
    fn asks_are_deterministic() {
        let (cp1, ts) = copilot();
        let (cp2, _) = copilot();
        let q = "What is the service request success rate?";
        let a = cp1.ask(q, ts);
        let b = cp2.ask(q, ts);
        assert_eq!(a.query, b.query);
        assert_eq!(a.numeric_answer, b.numeric_answer);
    }

    #[test]
    fn meter_accumulates_over_queries() {
        // The observed model meters every call into the registry: its
        // cost counter is the sum of what the responses were billed.
        let (cp, ts) = copilot();
        let billed = cp.ask("How many paging attempts?", ts).cost_cents
            + cp.ask("How many service requests?", ts).cost_cents;
        let snap = cp.obs().registry().snapshot();
        assert_eq!(snap.total("dio_llm_model_calls_total"), 2.0);
        assert!(billed > 0.0);
        assert!((snap.total("dio_llm_cost_cents_total") - billed).abs() < 1e-9);
    }

    #[test]
    fn feedback_loop_grows_exemplars_and_reindexes() {
        let (cp, ts) = copilot();
        let r = cp.ask("What is the LCS NI-LR procedure success rate?", ts);
        let issue = cp.request_expert_help(&r);
        let before = cp.knowledge().exemplars.len();
        cp.resolve_issue(
            issue,
            "expert:alice",
            Contribution::Exemplar {
                question: "What is the LCS NI-LR procedure success rate?".into(),
                metrics: vec![
                    "amflcs_lcs_ni_lr_success".into(),
                    "amflcs_lcs_ni_lr_attempt".into(),
                ],
                promql: "100 * sum(amflcs_lcs_ni_lr_success) / sum(amflcs_lcs_ni_lr_attempt)"
                    .into(),
            },
        )
        .unwrap();
        assert_eq!(cp.knowledge().exemplars.len(), before + 1);
        assert_eq!(cp.tracker().len(), 1);
    }

    #[test]
    fn note_contribution_becomes_retrievable() {
        let (cp, ts) = copilot();
        let r = cp.ask("How do I inspect the frobnicator wobble index?", ts);
        let issue = cp.request_expert_help(&r);
        cp.resolve_issue(
            issue,
            "expert:bob",
            Contribution::Note {
                title: "frobnicator-wobble".into(),
                text: "The frobnicator wobble index is tracked by amfcc_n2_paging_attempt \
                       in this deployment."
                    .into(),
            },
        )
        .unwrap();
        let hits = cp.extractor().retrieve("frobnicator wobble index", 5);
        assert!(hits
            .iter()
            .any(|h| h.sample.name == "note:frobnicator-wobble"));
    }

    /// Delegates to a simulated model but fails the first `n` calls
    /// with a transient error.
    struct FailFirstN {
        inner: SimulatedModel,
        remaining: std::sync::Mutex<usize>,
    }

    impl FoundationModel for FailFirstN {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn context_window(&self) -> usize {
            self.inner.context_window()
        }
        fn pricing(&self) -> dio_llm::Pricing {
            self.inner.pricing()
        }
        fn complete(
            &self,
            request: &CompletionRequest,
        ) -> Result<dio_llm::Completion, dio_llm::ModelError> {
            let mut rem = self.remaining.lock().unwrap();
            if *rem > 0 {
                *rem -= 1;
                return Err(dio_llm::ModelError::Unavailable("synthetic outage".into()));
            }
            self.inner.complete(request)
        }
    }

    /// Delegates to a simulated model but corrupts the first completion
    /// into unparseable PromQL.
    struct CorruptFirst {
        inner: SimulatedModel,
        corrupted: std::sync::Mutex<bool>,
    }

    impl FoundationModel for CorruptFirst {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn context_window(&self) -> usize {
            self.inner.context_window()
        }
        fn pricing(&self) -> dio_llm::Pricing {
            self.inner.pricing()
        }
        fn complete(
            &self,
            request: &CompletionRequest,
        ) -> Result<dio_llm::Completion, dio_llm::ModelError> {
            let mut c = self.inner.complete(request)?;
            let mut done = self.corrupted.lock().unwrap();
            if !*done {
                *done = true;
                c.text.push_str(" )(");
            }
            Ok(c)
        }
    }

    fn copilot_with_model(model: Box<dyn FoundationModel>) -> (DioCopilot, i64) {
        let (db, store, ts) = world();
        (
            CopilotBuilder::new(db, store)
                .exemplars(exemplars())
                .model(model)
                .build(),
            ts,
        )
    }

    #[test]
    fn transient_model_failure_is_retried_to_success() {
        let (cp, ts) = copilot_with_model(Box::new(FailFirstN {
            inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
            remaining: std::sync::Mutex::new(1),
        }));
        let r = cp.ask(
            "How many initial registration attempts did the AMF handle?",
            ts,
        );
        assert!(r.error.is_none(), "error: {:?}", r.error);
        assert!(r.numeric_answer.is_some());
        assert_eq!(r.degradation, crate::recovery::DegradationLevel::Full);
        assert_eq!(r.trace.recovery.retries, 1);
        assert_eq!(r.trace.recovery.attempts, 2);
        assert_eq!(r.trace.recovery.backoff_schedule_ms, vec![100]);
        // Retries happen inside the generate stage: still 4 stages.
        assert_eq!(r.trace.stages.len(), 4);
    }

    #[test]
    fn malformed_query_is_repaired_in_sandbox_loop() {
        let (cp, ts) = copilot_with_model(Box::new(CorruptFirst {
            inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
            corrupted: std::sync::Mutex::new(false),
        }));
        let r = cp.ask(
            "How many initial registration attempts did the AMF handle?",
            ts,
        );
        assert!(r.error.is_none(), "error: {:?}", r.error);
        assert!(r.numeric_answer.is_some());
        assert_eq!(r.degradation, crate::recovery::DegradationLevel::Repaired);
        assert_eq!(r.trace.recovery.repairs, 1);
        assert!(!r.query.contains(")("), "repaired query: {}", r.query);
        // Per-invocation spans: the repair loop re-enters generate and
        // execute, and both invocations are visible (satellite fix for
        // the old first-match-only trace lookup).
        assert_eq!(r.trace.invocations("generate"), 2);
        assert_eq!(r.trace.invocations("execute"), 2);
        assert_eq!(r.trace.stages.len(), 6);
        let gen = r.trace.stage("generate").unwrap();
        assert_eq!(gen.invocations, 2);
    }

    #[test]
    fn total_outage_degrades_to_top_metric_lookup() {
        let (cp, ts) = copilot_with_model(Box::new(FailFirstN {
            inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
            remaining: std::sync::Mutex::new(usize::MAX),
        }));
        let r = cp.ask(
            "How many initial registration attempts did the AMF handle?",
            ts,
        );
        assert_eq!(r.degradation, crate::recovery::DegradationLevel::Degraded);
        assert!(r.trace.recovery.degraded);
        assert!(matches!(
            r.error,
            Some(CopilotError::ModelUnavailable { .. })
        ));
        // The fallback still answers from the best retrieved metric.
        assert!(r.numeric_answer.is_some() || !r.values.is_empty());
        assert!(!r.query.is_empty());
        assert!(r.render().contains("degraded answer"));
        // Threshold (3) consecutive failures tripped the breaker.
        assert_eq!(r.trace.recovery.breaker_trips, 1);
        assert_eq!(cp.breaker().state(), crate::recovery::BreakerState::Open);
    }

    #[test]
    fn open_breaker_skips_model_calls_on_subsequent_asks() {
        let (cp, ts) = copilot_with_model(Box::new(FailFirstN {
            inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
            remaining: std::sync::Mutex::new(usize::MAX),
        }));
        let first = cp.ask("How many paging attempts?", ts);
        let first_attempts = first.trace.recovery.attempts;
        assert!(first_attempts >= 3);
        // Breaker is open: the next ask degrades without reaching the
        // model at all.
        let second = cp.ask("How many service requests?", ts);
        assert_eq!(second.trace.recovery.attempts, 0);
        assert_eq!(
            second.degradation,
            crate::recovery::DegradationLevel::Degraded
        );
        assert!(second.numeric_answer.is_some() || !second.values.is_empty());
    }

    #[test]
    fn disabled_recovery_surfaces_failures_unrepaired() {
        let (db, store, ts) = world();
        let cp = CopilotBuilder::new(db, store)
            .config(CopilotConfig {
                recovery: crate::recovery::RecoveryPolicy::disabled(),
                ..CopilotConfig::default()
            })
            .exemplars(exemplars())
            .model(Box::new(CorruptFirst {
                inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
                corrupted: std::sync::Mutex::new(false),
            }))
            .build();
        let r = cp.ask(
            "How many initial registration attempts did the AMF handle?",
            ts,
        );
        assert!(matches!(r.error, Some(CopilotError::QueryParse { .. })));
        assert!(r.numeric_answer.is_none());
        assert_eq!(r.trace.recovery.repairs, 0);
        assert_eq!(r.degradation, crate::recovery::DegradationLevel::Full);
    }

    #[test]
    fn cost_is_in_the_papers_ballpark() {
        // §4.2.5: average 4.25 cents per query with GPT-4 pricing.
        let (cp, ts) = copilot();
        let questions = [
            "How many initial registration attempts did the AMF handle?",
            "What is the paging success rate?",
            "How many authentication requests per second?",
        ];
        let billed: f64 = questions.iter().map(|q| cp.ask(q, ts).cost_cents).sum();
        let mean = billed / questions.len() as f64;
        assert!(
            (1.5..=8.0).contains(&mean),
            "mean cost {mean}¢ outside plausible band"
        );
    }

    #[test]
    fn registry_reflects_pipeline_activity() {
        let (cp, ts) = copilot();
        cp.ask("How many paging attempts?", ts);
        cp.ask("How many service requests?", ts);
        let snap = cp.obs().registry().snapshot();
        assert_eq!(snap.total(crate::obs::ASKS_NAME), 2.0);
        assert_eq!(snap.total(crate::obs::ANSWERS_NAME), 2.0);
        // Two single-call asks: the observed model saw two completions.
        assert_eq!(snap.total("dio_llm_model_calls_total"), 2.0);
        assert!(snap.total("dio_llm_cost_cents_total") > 0.0);
        // Sandbox executed both queries.
        assert!(snap.total("dio_sandbox_executions_total") >= 2.0);
        // Retrieval scanned candidates and observed similarities.
        assert!(snap.total(crate::obs::CANDIDATES_NAME) > 0.0);
        let sim = snap.family(crate::obs::SIMILARITY_NAME).unwrap();
        assert!(sim
            .series
            .iter()
            .any(|s| matches!(&s.value, dio_obs::SeriesValue::Histogram(h) if h.count > 0)));
        // Stage latency histogram carries the retrieve stage.
        let stage = snap.family(crate::obs::STAGE_DURATION_NAME).unwrap();
        assert!(stage
            .series
            .iter()
            .any(|s| s.labels.contains(&("stage".into(), "retrieve".into()))));
        // Ask duration counted both asks.
        let ask = snap.family(crate::obs::ASK_DURATION_NAME).unwrap();
        let count: u64 = ask
            .series
            .iter()
            .map(|s| match &s.value {
                dio_obs::SeriesValue::Histogram(h) => h.count,
                _ => 0,
            })
            .sum();
        assert_eq!(count, 2);
    }

    #[test]
    fn breaker_transitions_and_retries_are_counted() {
        let (cp, ts) = copilot_with_model(Box::new(FailFirstN {
            inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
            remaining: std::sync::Mutex::new(usize::MAX),
        }));
        let r = cp.ask("How many paging attempts?", ts);
        assert_eq!(r.degradation, crate::recovery::DegradationLevel::Degraded);
        let snap = cp.obs().registry().snapshot();
        // Retries per the policy (max_retries = 2).
        assert_eq!(snap.total(crate::obs::RETRIES_NAME), 2.0);
        // Recorded backoff: 100 + 200 ms.
        assert_eq!(snap.total(crate::obs::BACKOFF_NAME), 300.0);
        // The breaker opened once.
        let fam = snap.family(crate::obs::BREAKER_NAME).unwrap();
        let opened: f64 = fam
            .series
            .iter()
            .filter(|s| s.labels.contains(&("to".into(), "open".into())))
            .map(|s| match &s.value {
                dio_obs::SeriesValue::Counter(v) => *v,
                _ => 0.0,
            })
            .sum();
        assert_eq!(opened, 1.0);
        // Degraded answer counted under its label.
        let answers = snap.family(crate::obs::ANSWERS_NAME).unwrap();
        let degraded: f64 = answers
            .series
            .iter()
            .filter(|s| {
                s.labels
                    .contains(&("degradation".into(), "degraded".into()))
            })
            .map(|s| match &s.value {
                dio_obs::SeriesValue::Counter(v) => *v,
                _ => 0.0,
            })
            .sum();
        assert_eq!(degraded, 1.0);
        // The fallback recorded its own span.
        assert_eq!(r.trace.invocations("fallback"), 1);
    }

    /// A store resolver whose every shard is down: each resolution
    /// fails the way a cluster with no live copy does.
    #[derive(Debug)]
    struct Unreachable;

    impl dio_sandbox::StoreResolver for Unreachable {
        fn resolve(&self, _: &[String], _: bool) -> Result<Arc<MetricStore>, String> {
            Err("shard 0 has no live copy".into())
        }
    }

    #[test]
    fn default_config_keeps_answers_complete_and_chaos_free() {
        let (cp, ts) = copilot();
        let r = cp.ask("How many paging attempts?", ts);
        assert!(r.error.is_none(), "{:?}", r.error);
        assert!(r.numeric_answer.is_some());
        assert_eq!(r.trace.recovery.data_faults, 0);
        let snap = cp.obs().registry().snapshot();
        assert_eq!(snap.total(crate::obs::DATA_FAULTS_NAME), 0.0);
    }

    #[test]
    fn total_storage_outage_degrades_without_panicking() {
        // Every store resolution fails: execution retries the unchanged
        // query (no model repair burned), then degrades; the fallback's
        // candidates cannot reach the store either, so the answer is
        // NoData — but classified, counted, and panic-free.
        let (mut cp, ts) = copilot();
        cp.attach_store_resolver(Arc::new(Unreachable));
        let r = cp.ask("How many paging attempts?", ts);
        assert_eq!(r.degradation, crate::recovery::DegradationLevel::Degraded);
        assert!(
            matches!(r.error, Some(CopilotError::NoData { .. })),
            "{:?}",
            r.error
        );
        assert!(r.render().contains("Answer: unavailable"), "{}", r.render());
        // The first try and every bounded retry count once each.
        let retries = RecoveryPolicy::default().max_retries;
        assert_eq!(r.trace.recovery.data_faults, 1 + retries);
        // Storage retries are not model repair rounds.
        assert_eq!(r.trace.recovery.repairs, 0);
        let snap = cp.obs().registry().snapshot();
        assert_eq!(
            snap.total(crate::obs::DATA_FAULTS_NAME),
            (1 + retries) as f64
        );
    }

    /// Compile-time Send/Sync audit for the shared serving state: a
    /// worker pool shares one copilot behind an `Arc` (`Sync`, with the
    /// published cell, the breaker and the sandbox inside it), every
    /// worker asks from knowledge snapshots it holds by `Arc`, and the
    /// model gateway calls one shared upstream from every worker at
    /// once (`Sync` models). A regression here (an `Rc`, a `RefCell` in
    /// shared state) fails compilation, not runtime.
    #[test]
    fn shared_pipeline_state_is_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Arc<DioCopilot>>();
        assert_send_sync::<RwLock<Published>>();
        assert_send_sync::<Mutex<CircuitBreaker>>();
        assert_send_sync::<Sandbox>();
        assert_send_sync::<Arc<Knowledge>>();
        assert_send_sync::<Arc<dyn FoundationModel>>();
        assert_send::<CopilotResponse>();
        assert_send_sync::<MetricStore>();
        assert_send_sync::<ObsHub>();
    }

    /// Everything a response says but its timings, as text.
    fn untimed(r: &CopilotResponse) -> String {
        let mut r = r.clone();
        let recovery = std::mem::take(&mut r.trace.recovery);
        r.trace = PipelineTrace::default();
        format!("{r:?} {recovery:?}")
    }

    #[test]
    fn threads_sharing_one_copilot_answer_as_in_sequence() {
        let (cp, ts) = copilot();
        let questions = [
            "How many initial registration attempts did the AMF handle?",
            "What is the paging success rate at the AMF?",
            "How many authentication requests per second?",
            "How do I inspect the frobnicator wobble index?",
        ];
        let in_sequence: Vec<String> = questions.iter().map(|q| untimed(&cp.ask(q, ts))).collect();
        let cp = Arc::new(cp);
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let cp = Arc::clone(&cp);
                std::thread::spawn(move || {
                    questions
                        .iter()
                        .map(|q| untimed(&cp.ask(q, ts)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for thread in threads {
            assert_eq!(thread.join().unwrap(), in_sequence);
        }
    }

    #[test]
    fn a_panic_while_the_breaker_is_held_does_not_wedge_it() {
        let (cp, ts) = copilot();
        let cp = Arc::new(cp);
        let holder = Arc::clone(&cp);
        let poisoned = std::thread::spawn(move || {
            let _held = holder.breaker.lock().unwrap();
            panic!("a worker panics while it holds the breaker");
        })
        .join();
        assert!(poisoned.is_err() && cp.breaker.is_poisoned());
        let r = cp.ask("How many paging attempts?", ts);
        assert_eq!(r.degradation, DegradationLevel::Full);
        assert_eq!(r.trace.recovery.attempts, 1);
    }

    #[test]
    fn feedback_update_bumps_shared_generation_copy_on_write() {
        let (cp, ts) = copilot();
        let clone = cp.clone();
        let snapshot = cp.knowledge();
        assert_eq!(snapshot.generation(), 0);
        let r = cp.ask("How do I inspect the frobnicator wobble index?", ts);
        let issue = cp.request_expert_help(&r);
        let note = |title: &str| Contribution::Note {
            title: title.into(),
            text: "The frobnicator wobble index is tracked by amfcc_n2_paging_attempt \
                   in this deployment."
                .into(),
        };
        // Raised through one copilot, resolved through its clone.
        clone
            .resolve_issue(issue, "expert:bob", note("frobnicator-wobble"))
            .unwrap();
        // The update is a new value: both copilots read it at once …
        let noted = |extractor: &ContextExtractor| {
            let hits = extractor.retrieve("frobnicator wobble index", 5);
            hits.iter().any(|h| h.sample.name.contains("frobnicator"))
        };
        assert_eq!(cp.knowledge().generation(), 1);
        assert!(Arc::ptr_eq(&cp.knowledge(), &clone.knowledge()));
        assert!(noted(&cp.extractor()));
        // … and a snapshot taken before keeps the old one, for the
        // asks that were promised it.
        assert_eq!(snapshot.generation(), 0);
        assert!(!noted(snapshot.extractor()));
        let q = "How do I inspect the frobnicator wobble index?";
        let old = cp.ask_with(AskRequest {
            knowledge: Some(&snapshot),
            ..AskRequest::new(q, ts)
        });
        assert_eq!(old.query, r.query);
        assert_ne!(cp.ask(q, ts).query, r.query, "the note changes it");
        // A resolution that fails publishes nothing.
        let again = cp.resolve_issue(issue, "expert:bob", note("again"));
        assert!(again.is_err());
        assert_eq!(clone.knowledge().generation(), 1);
    }

    #[test]
    fn precomputed_question_vector_matches_default_path() {
        let (cp, ts) = copilot();
        let q = "How many paging attempts were there?";
        let vec = cp.extractor().embed_question(q);
        let prepared = cp.ask_with(AskRequest {
            qvec: Some(&vec),
            ..AskRequest::new(q, ts)
        });
        let plain = cp.ask(q, ts);
        assert_eq!(prepared.query, plain.query);
        assert_eq!(prepared.numeric_answer, plain.numeric_answer);
    }

    #[test]
    fn lapsed_budget_aborts_before_any_model_call() {
        let (cp, ts) = copilot();
        let r = cp.ask_with(AskRequest {
            budget: Budget::within(std::time::Duration::ZERO),
            ..AskRequest::new("How many paging attempts?", ts)
        });
        assert!(
            matches!(r.error, Some(CopilotError::DeadlineExceeded { .. })),
            "{:?}",
            r.error
        );
        assert!(r.numeric_answer.is_none());
        assert_eq!(r.trace.recovery.attempts, 0);
        let snap = cp.obs().registry().snapshot();
        // Zero work past the lapsed deadline: the model was never
        // touched, and the abort is not counted as an answer.
        assert_eq!(snap.total("dio_llm_model_calls_total"), 0.0);
        assert_eq!(snap.total(crate::obs::ANSWERS_NAME), 0.0);
        assert_eq!(snap.total(crate::obs::DEADLINE_NAME), 1.0);
        // The standalone trace closed under the deadline class.
        let closed = &cp.obs().tracer().recent(1)[0];
        assert!(closed.finished);
        assert_eq!(closed.status, TraceStatus::DeadlineExceeded);
    }

    #[test]
    fn brownout_ask_degrades_without_any_model_call() {
        let (cp, ts) = copilot();
        let q = "How many paging attempts?";
        let breaker_before = cp.breaker().clone();
        let r = cp.ask_with(AskRequest {
            model: false,
            ..AskRequest::new(q, ts)
        });
        assert_eq!(r.degradation, DegradationLevel::Degraded);
        assert!(matches!(
            r.error,
            Some(CopilotError::ModelUnavailable { attempts: 0, .. })
        ));
        assert_eq!(r.trace.recovery.attempts, 0);
        assert_eq!(r.trace.recovery.breaker_trips, 0);
        let snap = cp.obs().registry().snapshot();
        assert_eq!(
            snap.total("dio_llm_model_calls_total"),
            0.0,
            "cache-only brownout must not touch the model"
        );
        // The real breaker was never consulted: the next plain ask runs
        // the full pipeline.
        assert_eq!(*cp.breaker(), breaker_before);
        let full = cp.ask(q, ts);
        assert_eq!(full.degradation, DegradationLevel::Full);
    }

    #[test]
    fn model_off_ask_leaves_an_open_breakers_cooldown_untouched() {
        let (cp, ts) = copilot_with_model(Box::new(FailFirstN {
            inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
            remaining: std::sync::Mutex::new(usize::MAX),
        }));
        cp.ask("How many paging attempts?", ts);
        assert_eq!(cp.breaker().state(), crate::recovery::BreakerState::Open);
        let open = cp.breaker().clone();
        let r = cp.ask_with(AskRequest {
            model: false,
            ..AskRequest::new("How many service requests?", ts)
        });
        assert_eq!(r.degradation, DegradationLevel::Degraded);
        // Not one cooldown tick spent, no transition counted.
        assert_eq!(*cp.breaker(), open);
    }

    #[test]
    fn request_fidelity_caps_apply_to_one_ask_only() {
        let (cp, ts) = copilot_with_model(Box::new(CorruptFirst {
            inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
            corrupted: std::sync::Mutex::new(false),
        }));
        let q = "How many initial registration attempts did the AMF handle?";
        let capped = cp.ask_with(AskRequest {
            top_k_cap: 3,
            repair_round_cap: 0,
            ..AskRequest::new(q, ts)
        });
        // No repair round allowed: the malformed first try degrades.
        assert_eq!(capped.trace.recovery.repairs, 0);
        assert_eq!(capped.degradation, DegradationLevel::Degraded);
        let sim = |cp: &DioCopilot| {
            let snap = cp.obs().registry().snapshot();
            let fam = snap.family(crate::obs::SIMILARITY_NAME).unwrap();
            fam.series
                .iter()
                .map(|s| match &s.value {
                    dio_obs::SeriesValue::Histogram(h) => h.count,
                    _ => 0,
                })
                .sum::<u64>()
        };
        assert_eq!(sim(&cp), 3, "top-k cap bounds the retrieved context");
        // The next plain ask is back at the configured fidelity.
        let full = cp.ask(q, ts);
        assert_eq!(full.degradation, DegradationLevel::Full);
        assert_eq!(sim(&cp), 3 + CopilotConfig::default().top_k as u64);
    }

    #[test]
    fn cancellation_aborts_like_a_lapsed_deadline() {
        let (cp, ts) = copilot();
        let budget = Budget::unbounded();
        budget.cancel();
        let r = cp.ask_with(AskRequest {
            budget,
            ..AskRequest::new("How many paging attempts?", ts)
        });
        assert!(matches!(
            r.error,
            Some(CopilotError::DeadlineExceeded { .. })
        ));
        assert_eq!(r.trace.recovery.attempts, 0);
        assert!(r.render().contains("deadline exceeded"));
    }

    #[test]
    fn unbounded_budget_reproduces_the_plain_ask() {
        let (cp1, ts) = copilot();
        let (cp2, _) = copilot();
        let q = "How many initial registration attempts did the AMF handle?";
        let a = cp1.ask(q, ts);
        let b = cp2.ask_with(AskRequest {
            budget: Budget::unbounded(),
            ..AskRequest::new(q, ts)
        });
        assert_eq!(a.query, b.query);
        assert_eq!(a.numeric_answer, b.numeric_answer);
        assert_eq!(a.usage, b.usage);
        assert!(b.error.is_none());
    }

    #[test]
    fn generous_budget_caps_model_calls_without_changing_answers() {
        let (cp, ts) = copilot();
        let r = cp.ask_with(AskRequest {
            budget: Budget::within(std::time::Duration::from_secs(3600)),
            ..AskRequest::new(
                "How many initial registration attempts did the AMF handle?",
                ts,
            )
        });
        assert!(r.error.is_none(), "{:?}", r.error);
        assert!(r.numeric_answer.is_some());
        assert_eq!(r.degradation, crate::recovery::DegradationLevel::Full);
    }

    #[test]
    fn a_budget_with_time_left_never_sends_a_zero_timeout() {
        use std::time::Duration;
        assert_eq!(timeout_ms(Duration::from_micros(500)), 1);
        assert_eq!(timeout_ms(Duration::from_nanos(1)), 1);
        assert_eq!(timeout_ms(Duration::from_micros(1_001)), 2);
        assert_eq!(timeout_ms(Duration::from_millis(7)), 7);
        assert_eq!(timeout_ms(Duration::ZERO), 0);
        assert_eq!(timeout_ms(Duration::MAX), u64::MAX);
    }

    /// Delegates to a simulated model and keeps the text of every
    /// prompt it is sent.
    struct Recording {
        inner: SimulatedModel,
        prompts: Arc<std::sync::Mutex<Vec<String>>>,
    }

    impl FoundationModel for Recording {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn context_window(&self) -> usize {
            self.inner.context_window()
        }
        fn pricing(&self) -> dio_llm::Pricing {
            self.inner.pricing()
        }
        fn complete(
            &self,
            request: &CompletionRequest,
        ) -> Result<dio_llm::Completion, dio_llm::ModelError> {
            self.prompts
                .lock()
                .unwrap()
                .push(request.prompt.text.clone());
            self.inner.complete(request)
        }
    }

    /// The generation prompt of `question` as it was rendered before
    /// prompts were assembled from pieces: every line formatted from the
    /// copilot's current catalog, retrieval and exemplars, per ask.
    fn rendered_per_ask(cp: &DioCopilot, question: &str) -> String {
        let knowledge = cp.knowledge();
        let hits = knowledge.extractor.retrieve(question, cp.config.top_k);
        let window = cp.model.context_window();
        let exemplars = knowledge.exemplars.iter();
        let mut prompt = PromptBuilder::new()
            .system(SYSTEM_PROMPT)
            .context(hits.iter().map(|h| dio_llm::ContextItem {
                name: h.sample.name.clone(),
                text: first_sentence(&h.sample.text),
                relevance: h.score,
            }))
            .examples(exemplars.take(cp.config.max_exemplars).cloned())
            .question(question)
            .task(TaskKind::GeneratePromql);
        for f in knowledge.db.functions().take(4) {
            prompt = prompt.function(&f.name, first_sentence(&f.description));
        }
        let reserved = cp.config.max_output_tokens.min(window / 4);
        prompt.build(window, reserved).text
    }

    #[test]
    fn knowledge_updates_reach_the_next_prompt_as_rendered_per_ask() {
        let (db, store, ts) = world();
        let prompts = Arc::new(std::sync::Mutex::new(Vec::new()));
        let cp = CopilotBuilder::new(db, store)
            .exemplars(exemplars())
            .model(Box::new(Recording {
                inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
                prompts: Arc::clone(&prompts),
            }))
            .build();
        let q = "How many frobnicator wobble resets did the AMF handle?";
        let sent = |cp: &DioCopilot| {
            prompts.lock().unwrap().clear();
            cp.ask(q, ts);
            prompts.lock().unwrap()[0].clone()
        };
        assert_eq!(sent(&cp), rendered_per_ask(&cp, q));

        // A metric document, an exemplar and a function that sorts
        // first among the four the prompt shows.
        let mut metric = cp.knowledge().db.metrics().next().unwrap().clone();
        metric.name = "amfcc_frobnicator_wobble_reset".into();
        metric.description = "The number of frobnicator wobble resets handled by AMF. \
                              Pegged once per reset."
            .into();
        let mut function = cp.knowledge().db.functions().next().unwrap().clone();
        function.name = "aaa_wobble_ratio".into();
        function.description = "The share of frobnicator wobbles that reset. Percent.".into();
        let exemplar = Contribution::Exemplar {
            question: "How many frobnicator wobble resets happened?".into(),
            metrics: vec!["amfcc_frobnicator_wobble_reset".into()],
            promql: "sum(amfcc_frobnicator_wobble_reset)".into(),
        };
        let r = cp.ask(q, ts);
        for contribution in [
            Contribution::MetricDoc(metric),
            exemplar,
            Contribution::Function(function),
        ] {
            let issue = cp.request_expert_help(&r);
            cp.resolve_issue(issue, "expert:carol", contribution)
                .unwrap();
        }

        let after = sent(&cp);
        assert_eq!(after, rendered_per_ask(&cp, q));
        for shown in [
            "<<ITEM>> amfcc_frobnicator_wobble_reset: The number of frobnicator wobble resets \
             handled by AMF.\n",
            "<<Q>> How many frobnicator wobble resets happened?\n\
             <<METRICS>> amfcc_frobnicator_wobble_reset\n\
             <<PROMQL>> sum(amfcc_frobnicator_wobble_reset)\n",
            "<<ITEM>> aaa_wobble_ratio: The share of frobnicator wobbles that reset.\n",
        ] {
            assert!(after.contains(shown), "{shown:?} missing from\n{after}");
        }
    }

    #[test]
    fn clones_share_the_rendered_pieces() {
        let (cp, _) = copilot();
        let clone = cp.clone();
        let (mine, theirs) = (cp.knowledge(), clone.knowledge());
        assert!(std::ptr::eq(
            mine.example_pieces.as_ptr(),
            theirs.example_pieces.as_ptr()
        ));
        assert!(std::ptr::eq(
            mine.function_pieces.as_ptr(),
            theirs.function_pieces.as_ptr()
        ));
        assert!(!mine.example_pieces.is_empty() && !mine.function_pieces.is_empty());
        // Context lines live in the shared extractor: a clone's hit
        // borrows the very line the original's does.
        let q = "How many initial registration attempts did the AMF handle?";
        let (my_hits, their_hits) = (
            mine.extractor.retrieve(q, 29),
            theirs.extractor.retrieve(q, 29),
        );
        assert_eq!(my_hits, their_hits);
        for hit in &my_hits {
            assert!(std::ptr::eq(
                mine.extractor.line(hit),
                theirs.extractor.line(hit)
            ));
        }
    }
}
