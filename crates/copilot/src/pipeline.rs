//! The end-to-end DIO copilot pipeline.

use crate::answer::{CopilotResponse, RelevantMetric};
use crate::config::CopilotConfig;
use crate::error::CopilotError;
use crate::extractor::ContextExtractor;
use crate::obs::{note_breaker_transition, register_zero_instruments};
use crate::recovery::{CircuitBreaker, DegradationLevel, RecoveryPolicy, RecoveryStats};
use crate::trace::PipelineTrace;
use dio_catalog::DomainDb;
use dio_dashboard::{generate_dashboard, PanelSpecHint, TimeRange};
use dio_feedback::{Contribution, IssueId, IssueTracker, TrackerError};
use dio_llm::{
    CompletionRequest, ContextItem, CostMeter, FewShotExample, FoundationModel, ModelProfile,
    ObservedModel, PromptBuilder, SimulatedModel, TaskKind, TokenUsage,
};
use dio_faults::{DataFaultKind, Injector};
use dio_obs::{Buckets, Budget, ObsHub, SpanContext, TraceStatus};
use dio_sandbox::{DataCompleteness, Sandbox, SafetyPolicy};
use dio_tsdb::MetricStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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
        let extractor = ContextExtractor::build_with_mode(
            &self.db,
            self.config.domain_embedder,
            self.config.retrieval,
        );
        register_zero_instruments(self.obs.registry());
        let inner = self
            .model
            .unwrap_or_else(|| Box::new(SimulatedModel::new(ModelProfile::gpt4_sim())));
        let model: Box<dyn FoundationModel> =
            Box::new(ObservedModel::new(inner, self.obs.registry().clone()));
        let mut sandbox = Sandbox::new(self.store, self.policy);
        sandbox.attach_obs(self.obs.registry().clone());
        // Data-plane chaos: derive one independent, reproducible fault
        // schedule per storage layer from the shared config.
        let retrieval_chaos = self.config.data_chaos.as_ref().map(|c| {
            sandbox.attach_data_chaos(Injector::derived(c, "tsdb"));
            Injector::derived(c, "vecstore")
        });
        let breaker = CircuitBreaker::new(&self.config.recovery);
        DioCopilot {
            extractor: Arc::new(extractor),
            sandbox,
            retrieval_chaos,
            db: Arc::new(self.db),
            config: self.config,
            model,
            exemplars: Arc::new(self.exemplars),
            tracker: IssueTracker::new(),
            meter: CostMeter::new(),
            breaker,
            generation: Arc::new(AtomicU64::new(0)),
            obs: self.obs,
        }
    }
}

/// The assembled copilot.
///
/// Shared, read-mostly state — the domain DB, the embedded retrieval
/// index, the few-shot pool, and (inside the sandbox engine) the metric
/// store — rides behind `Arc`s so [`DioCopilot::fork_with_model`] can
/// stamp out per-worker pipeline instances without re-running the
/// offline embedding pass or copying the tsdb. Per-request/per-worker
/// mutable state (sandbox audit log, cost meter, circuit breaker, issue
/// tracker, chaos schedules) stays owned. The feedback loop mutates the
/// shared state copy-on-write and bumps a shared knowledge-generation
/// counter that serving-layer caches use for invalidation.
pub struct DioCopilot {
    config: CopilotConfig,
    db: Arc<DomainDb>,
    extractor: Arc<ContextExtractor>,
    model: Box<dyn FoundationModel>,
    sandbox: Sandbox,
    retrieval_chaos: Option<Injector>,
    exemplars: Arc<Vec<FewShotExample>>,
    tracker: IssueTracker,
    meter: CostMeter,
    breaker: CircuitBreaker,
    /// Monotone count of expert-knowledge updates (shared across forks).
    generation: Arc<AtomicU64>,
    obs: ObsHub,
}

/// One ask: the question, when to evaluate it, and how much of the
/// pipeline this request may spend. [`DioCopilot::ask`] is
/// [`AskRequest::new`] unchanged; a serving tier fills in the rest per
/// request (its brownout ladder lowers the three fidelity fields under
/// load). The copilot stores none of it.
#[derive(Debug, Clone)]
pub struct AskRequest<'a> {
    /// The natural-language question.
    pub question: &'a str,
    /// Evaluation timestamp (ms) the question is asked as of.
    pub ts: i64,
    /// A precomputed question embedding, so retrieval skips
    /// re-embedding (the serving layer's embedding cache). It must come
    /// from this pipeline's extractor
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
}

impl<'a> AskRequest<'a> {
    /// The full-fidelity request: embed the question here, own the
    /// trace, no deadline, the configured top-k and repair rounds, the
    /// model on.
    pub fn new(question: &'a str, ts: i64) -> Self {
        AskRequest {
            question,
            ts,
            qvec: None,
            parent: None,
            budget: Budget::unbounded(),
            top_k_cap: usize::MAX,
            repair_round_cap: usize::MAX,
            model: true,
        }
    }
}

/// What one ask carries from stage to stage, so the stages take it
/// instead of a dozen loose arguments: the request, where its spans
/// go, and what it has spent so far.
struct Ask<'a> {
    req: AskRequest<'a>,
    obs: ObsHub,
    /// The span every stage parents under (the request's, or the root
    /// of the trace this ask opened).
    span: SpanContext,
    ask_start: Instant,
    /// Breaker trips before this ask, to report the ones it caused.
    trips_before: usize,
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
    completeness: DataCompleteness,
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
            completeness: DataCompleteness::Partial,
        }
    }
}

impl DioCopilot {
    /// The domain database.
    pub fn db(&self) -> &DomainDb {
        &self.db
    }

    /// The issue tracker.
    pub fn tracker(&self) -> &IssueTracker {
        &self.tracker
    }

    /// Current few-shot pool.
    pub fn exemplars(&self) -> &[FewShotExample] {
        &self.exemplars
    }

    /// Accumulated cost meter.
    pub fn meter(&self) -> &CostMeter {
        &self.meter
    }

    /// The query engine (for rendering dashboards etc.).
    pub fn engine(&self) -> &dio_promql::Engine {
        self.sandbox.engine()
    }

    /// The context extractor.
    pub fn extractor(&self) -> &ContextExtractor {
        &self.extractor
    }

    /// The model in use.
    pub fn model_name(&self) -> &str {
        self.model.name()
    }

    /// The model-call circuit breaker (state persists across asks).
    #[cfg(test)]
    pub(crate) fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
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
    /// stores instead of the resident one. Forks inherit the resolver,
    /// so a serving pool spawned from this copilot is cluster-backed
    /// end to end.
    pub fn attach_store_resolver(
        &mut self,
        resolver: Arc<dyn dio_sandbox::StoreResolver>,
    ) {
        self.sandbox.attach_store_resolver(resolver);
    }

    /// Swap the foundation model without rebuilding the retrieval
    /// index — e.g. to change a fault schedule between experiment runs.
    /// The new model is wrapped for observation like the original.
    pub fn replace_model(&mut self, model: Box<dyn FoundationModel>) {
        self.model = Box::new(ObservedModel::new(model, self.obs.registry().clone()));
    }

    /// Install a new recovery policy and reset the circuit breaker to
    /// its closed state.
    pub fn set_recovery(&mut self, policy: RecoveryPolicy) {
        self.breaker = CircuitBreaker::new(&policy);
        self.config.recovery = policy;
    }

    /// Number of expert-knowledge updates applied so far (via
    /// [`DioCopilot::resolve_issue`]) across this copilot and every
    /// fork sharing its state. Serving-layer answer caches key entries
    /// by this generation and treat a mismatch as an invalidation.
    #[cfg(test)]
    pub(crate) fn knowledge_generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The shared generation counter handle (for cache invalidation
    /// without holding a copilot reference).
    pub fn generation_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.generation)
    }

    /// Stamp out an independent pipeline instance sharing this
    /// copilot's read-only state — domain DB, embedded retrieval index,
    /// few-shot pool, and the resident metric store — by `Arc` handle,
    /// not by copy. The fork gets its own model (wrapped for
    /// observation like the original), sandbox (fresh audit log over
    /// the shared store), circuit breaker, cost meter, and issue
    /// tracker, so forks never contend on mutable state: this is the
    /// worker-pool constructor for the serving layer. Chaos schedules
    /// are not inherited.
    pub fn fork_with_model(&self, model: Box<dyn FoundationModel>) -> DioCopilot {
        let model: Box<dyn FoundationModel> =
            Box::new(ObservedModel::new(model, self.obs.registry().clone()));
        let mut sandbox = Sandbox::new_shared(
            self.sandbox.store_arc(),
            self.sandbox.policy().clone(),
        );
        sandbox.attach_obs(self.obs.registry().clone());
        if let Some(resolver) = self.sandbox.store_resolver() {
            sandbox.attach_store_resolver(resolver);
        }
        DioCopilot {
            config: self.config.clone(),
            db: Arc::clone(&self.db),
            extractor: Arc::clone(&self.extractor),
            model,
            sandbox,
            retrieval_chaos: None,
            exemplars: Arc::clone(&self.exemplars),
            tracker: IssueTracker::new(),
            meter: CostMeter::new(),
            breaker: CircuitBreaker::new(&self.config.recovery),
            generation: Arc::clone(&self.generation),
            obs: self.obs.clone(),
        }
    }

    /// Answer a question, evaluating data at timestamp `ts`:
    /// [`DioCopilot::ask_with`] on the defaults of [`AskRequest::new`].
    pub fn ask(&mut self, question: &str, ts: i64) -> CopilotResponse {
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
    /// [`TraceStatus::DeadlineExceeded`] so the flight recorder retains
    /// it under its own outcome class.
    ///
    /// Nothing the request asks for is stored on the copilot: the next
    /// ask starts from the configured fidelity whatever this one did,
    /// and however it ended.
    pub fn ask_with(&mut self, req: AskRequest<'_>) -> CopilotResponse {
        let obs = self.obs.clone();
        let span = req
            .parent
            .unwrap_or_else(|| obs.tracer().begin_trace(req.question));
        let window = self.model.context_window();
        let mut ask = Ask {
            span,
            ask_start: Instant::now(),
            trips_before: self.breaker.trips(),
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

        // Stage 0 (chaos runs only): the retrieval index is a data
        // plane too. A transient read fault is retried in place (the
        // schedule decides again); a corrupt read quarantines the
        // index and falls back to the exact tier (IVF → flat keeps the
        // matrix, flat → flat re-embeds it); a latency spike is
        // recorded, never slept.
        if let Some(mut injector) = self.retrieval_chaos.take() {
            let mut retries = 0usize;
            while let Some(fault) = injector.decide() {
                ask.stats.data_faults += 1;
                ask.obs
                    .registry()
                    .counter_with(
                        crate::obs::DATA_FAULTS_NAME,
                        crate::obs::DATA_FAULTS_HELP,
                        &[("layer", "vecstore"), ("kind", fault.kind.slug())],
                    )
                    .inc();
                match fault.kind {
                    DataFaultKind::TransientIo => {
                        retries += 1;
                        if retries > self.config.recovery.max_retries {
                            break;
                        }
                    }
                    DataFaultKind::TruncatedRead | DataFaultKind::BitFlip => {
                        // Copy-on-write: a fork quarantining its index
                        // splits off its own extractor; unshared
                        // extractors demote in place.
                        if let Some((from, to)) = Arc::make_mut(&mut self.extractor).demote() {
                            ask.stats.index_demotions += 1;
                            ask.obs
                                .registry()
                                .counter_with(
                                    crate::obs::DEMOTIONS_NAME,
                                    crate::obs::DEMOTIONS_HELP,
                                    &[("to", to)],
                                )
                                .inc();
                            ask.obs.tracer().event(
                                &ask.span,
                                "index_demotion",
                                &[("from", from), ("to", to)],
                            );
                        }
                        break;
                    }
                    DataFaultKind::LatencySpike => {
                        injector.note_latency_spike();
                        break;
                    }
                }
            }
            self.retrieval_chaos = Some(injector);
        }

        // Stage 1: context extraction (offline index, online search).
        // A floor of 1 under the request's cap keeps retrieval (and
        // with it the degraded fallback) functional.
        let top_k = self.config.top_k.min(ask.req.top_k_cap.max(1));
        let (hits, retrieval) = ask.stage("retrieve", |ask, _| {
            self.extractor
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

        // Stage 2: relevant-metric identification. By default this is
        // folded into the generation prompt (one inference, §4.2.5 cost
        // envelope); `two_stage: true` issues the explicit
        // identify-then-generate calls.
        let identified: Vec<String> = if self.config.two_stage {
            let request = self.model_request(
                &ask,
                PromptBuilder::new()
                    .system(SYSTEM_PROMPT)
                    .context(gen_context(&hits, &[]))
                    .question(question)
                    .task(TaskKind::IdentifyMetrics),
            );
            ask.stage("identify", |ask, _| {
                // Identification is best-effort: on failure the merged
                // full-context prompt covers for the missing selection.
                match self.call_model(ask, &request) {
                    Ok(text) => text
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty() && s != "none")
                        .collect(),
                    Err(_) => Vec::new(),
                }
            })
        } else {
            Vec::new()
        };

        // Stage 3: few-shot code generation over the selected metrics
        // (two-stage) or the full retrieved context (merged).
        let gen_request = self.codegen_request(
            &ask,
            SYSTEM_PROMPT,
            gen_context(&hits, &identified),
            TaskKind::GeneratePromql,
        );
        let generated = self.generate(&mut ask, &gen_request);

        // Stage 4: sandboxed execution with self-repair. A model error
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
            completeness,
        } = self.execute_with_repair(&mut ask, generated, &identified, &hits);
        if let Some(CopilotError::DeadlineExceeded { stage }) = &error {
            let stage = stage.clone();
            return self.deadline_abort(ask, query, &stage);
        }
        ask.stats.degraded = degradation == DegradationLevel::Degraded;
        ask.obs
            .registry()
            .counter_with(
                crate::obs::COMPLETENESS_NAME,
                crate::obs::COMPLETENESS_HELP,
                &[("level", completeness.slug())],
            )
            .inc();

        // Relevant metrics for the rendered response: the identified
        // set, falling back to whatever the query references. The
        // final query is parsed once, for this and for the explanation.
        let executed = canonical.is_some();
        let final_query = canonical.unwrap_or(query);
        let parsed = dio_promql::parse(&final_query);
        let mut shown = identified;
        if shown.is_empty() {
            if let Ok(expr) = &parsed {
                shown = expr.metric_names();
            }
        }
        let relevant_metrics: Vec<RelevantMetric> = shown
            .iter()
            .filter_map(|n| {
                self.db.metric(n).map(|m| RelevantMetric {
                    name: m.name.clone(),
                    description: first_sentence(&m.description),
                })
            })
            .collect();

        // Stage 5: dashboard generation.
        let dashboard = if self.config.generate_dashboards {
            let hints: Vec<PanelSpecHint> = shown
                .iter()
                .filter_map(|n| self.db.metric(n))
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
            data_completeness: completeness,
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
    fn wind_down(
        &mut self,
        mut ask: Ask<'_>,
        status: TraceStatus,
    ) -> (TokenUsage, f64, PipelineTrace) {
        ask.stats.breaker_trips = self.breaker.trips().saturating_sub(ask.trips_before);
        ask.obs
            .registry()
            .histogram(
                crate::obs::ASK_DURATION_NAME,
                crate::obs::ASK_DURATION_HELP,
                &Buckets::latency_micros(),
            )
            .observe(dio_obs::micros_u64(ask.ask_start.elapsed()) as f64);
        let cost_cents = self.model.pricing().cost_cents(ask.usage);
        self.meter.record(ask.usage, self.model.pricing());
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
    /// trace as [`TraceStatus::DeadlineExceeded`] so the flight
    /// recorder retains it under its own outcome class. No answer
    /// counter and no `answered` event: a deadline abort is not an
    /// answer.
    fn deadline_abort(&mut self, ask: Ask<'_>, query: String, stage: &str) -> CopilotResponse {
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
            data_completeness: DataCompleteness::Partial,
            dashboard: None,
            usage,
            cost_cents,
            trace,
        }
    }

    /// Render `prompt` into a model request for this ask: the ask's
    /// window budget, the configured sampling, and a per-call timeout
    /// of whatever the request budget has left (unbounded: no cap).
    fn model_request(&self, ask: &Ask<'_>, prompt: PromptBuilder) -> CompletionRequest {
        let timeout_ms = ask.req.budget.remaining().map(|left| left.as_millis() as u64);
        CompletionRequest {
            prompt: prompt.build(ask.window, ask.reserved),
            max_tokens: self.config.max_output_tokens,
            temperature: self.config.temperature,
            timeout_ms,
        }
    }

    /// The code-generation request, first try and repair alike: same
    /// context, exemplars, expert functions and question; only the
    /// system section and the task differ.
    fn codegen_request(
        &self,
        ask: &Ask<'_>,
        system: impl Into<String>,
        context: Vec<ContextItem>,
        task: TaskKind,
    ) -> CompletionRequest {
        let mut prompt = PromptBuilder::new()
            .system(system)
            .context(context)
            .examples(
                self.exemplars
                    .iter()
                    .take(self.config.max_exemplars)
                    .cloned(),
            )
            .question(ask.req.question)
            .task(task);
        for f in self.db.functions().take(4) {
            prompt = prompt.function(&f.name, first_sentence(&f.description));
        }
        self.model_request(ask, prompt)
    }

    /// One `generate` stage: a model call under the recovery policy,
    /// yielding the trimmed query text.
    fn generate(
        &mut self,
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
        &mut self,
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
                let gate = self.breaker.state();
                let admitted = self.breaker.allow();
                note_breaker_transition(&ask.obs, &ask.span, gate, self.breaker.state());
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
            let result = self.model.complete(request);
            let before = self.breaker.state();
            if result.is_ok() {
                self.breaker.record_success();
            } else {
                self.breaker.record_failure();
            }
            note_breaker_transition(&ask.obs, &ask.span, before, self.breaker.state());
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
        &mut self,
        ask: &mut Ask<'_>,
        generated: Result<String, CopilotError>,
        identified: &[String],
        hits: &[crate::extractor::Retrieved],
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
                        completeness: out.completeness,
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
                &[("round", &rounds.to_string()), ("error", &sandbox_err.to_string())],
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
                gen_context(hits, identified),
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
                completeness: DataCompleteness::Complete,
            }
        }
    }

    /// The last line of defence: answer with an instant-vector lookup
    /// of the best retrieved metric that actually executes, labelled
    /// [`DegradationLevel::Degraded`] and carrying the error that
    /// forced the fallback.
    fn degraded_fallback(
        &mut self,
        ask: &mut Ask<'_>,
        failed_query: String,
        error: CopilotError,
        hits: &[crate::extractor::Retrieved],
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
                        completeness: out.completeness,
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
                completeness: DataCompleteness::Partial,
            }
        })
    }

    /// File an expert-help issue for a response (the raise-hand button).
    pub fn request_expert_help(&mut self, response: &CopilotResponse) -> IssueId {
        self.tracker.raise_hand(
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
    /// few-shot pool, and the retrieval index is rebuilt so new context
    /// is immediately searchable.
    pub fn resolve_issue(
        &mut self,
        id: IssueId,
        expert_id: &str,
        contribution: Contribution,
    ) -> Result<(), TrackerError> {
        let exemplar =
            self.tracker
                .resolve(id, expert_id, contribution, Arc::make_mut(&mut self.db))?;
        if let Some((question, metrics, promql)) = exemplar {
            Arc::make_mut(&mut self.exemplars).push(FewShotExample {
                question,
                metrics,
                promql,
            });
        }
        self.extractor = Arc::new(ContextExtractor::build_with_mode(
            &self.db,
            self.config.domain_embedder,
            self.config.retrieval,
        ));
        // Publish the knowledge update: serving caches watching this
        // generation drop answers computed against the old catalog.
        self.generation.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }
}

/// System prompt shared by both stages.
const SYSTEM_PROMPT: &str = "You are DIO copilot, a natural language interface for retrieval \
and analytics tasks on 5G operator data. Use only metrics from CONTEXT. Answer with PromQL.";

/// The context a prompt shows: the retrieved items `identified` names,
/// or all of them when it names none (merged mode, or an empty
/// two-stage selection). Built per request and moved into the builder;
/// a repair round, the rare path, builds it again.
fn gen_context(hits: &[crate::extractor::Retrieved], identified: &[String]) -> Vec<ContextItem> {
    let item = |h: &crate::extractor::Retrieved| ContextItem {
        name: h.sample.name.clone(),
        text: first_sentence(&h.sample.text),
        relevance: h.score,
    };
    let selected: Vec<ContextItem> = hits
        .iter()
        .filter(|h| identified.contains(&h.sample.name))
        .map(item)
        .collect();
    if selected.is_empty() {
        hits.iter().map(item).collect()
    } else {
        selected
    }
}

/// First sentence of a description (keeps prompts within the paper's
/// cost envelope while preserving the discriminative tokens).
fn first_sentence(text: &str) -> String {
    match text.find(". ") {
        Some(i) => text[..=i].to_string(),
        None => text.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_catalog::{generate_catalog, CatalogConfig};
    use dio_catalog::MetricRole;
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
            let labels = Labels::from_pairs([
                ("__name__", m.name.as_str()),
                ("instance", "amf-0"),
            ]);
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
                promql: "100 * sum(amfcc_n2_paging_success) / sum(amfcc_n2_paging_attempt)"
                    .into(),
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
        let (mut cp, ts) = copilot();
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
        let (mut cp, ts) = copilot();
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
        let (mut cp, ts) = copilot();
        let r = cp.ask("How many paging attempts were there?", ts);
        assert!(!r.relevant_metrics.is_empty());
        assert!(r.relevant_metrics[0].description.contains("The"));
        let rendered = r.render();
        assert!(rendered.contains("Relevant metrics"));
    }

    #[test]
    fn dashboard_is_generated_when_enabled() {
        let (mut cp, ts) = copilot();
        let r = cp.ask("How many authentication requests per second?", ts);
        let d = r.dashboard.expect("dashboard");
        assert!(!d.panels.is_empty());
    }

    #[test]
    fn dashboards_can_be_disabled() {
        let (db, store, ts) = world();
        let mut cp = CopilotBuilder::new(db, store)
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
        let (mut cp1, ts) = copilot();
        let (mut cp2, _) = copilot();
        let q = "What is the service request success rate?";
        let a = cp1.ask(q, ts);
        let b = cp2.ask(q, ts);
        assert_eq!(a.query, b.query);
        assert_eq!(a.numeric_answer, b.numeric_answer);
    }

    #[test]
    fn meter_accumulates_over_queries() {
        let (mut cp, ts) = copilot();
        cp.ask("How many paging attempts?", ts);
        cp.ask("How many service requests?", ts);
        assert_eq!(cp.meter().queries(), 2);
        assert!(cp.meter().mean_cents_per_query() > 0.0);
    }

    #[test]
    fn feedback_loop_grows_exemplars_and_reindexes() {
        let (mut cp, ts) = copilot();
        let r = cp.ask("What is the LCS NI-LR procedure success rate?", ts);
        let issue = cp.request_expert_help(&r);
        let before = cp.exemplars().len();
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
        assert_eq!(cp.exemplars().len(), before + 1);
        assert_eq!(cp.tracker().len(), 1);
    }

    #[test]
    fn note_contribution_becomes_retrievable() {
        let (mut cp, ts) = copilot();
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
        let hits = cp
            .extractor()
            .retrieve("frobnicator wobble index", 5);
        assert!(hits
            .iter()
            .any(|h| h.sample.name == "note:frobnicator-wobble"));
    }

    /// Delegates to a simulated model but fails the first `n` calls
    /// with a transient error.
    struct FailFirstN {
        inner: SimulatedModel,
        remaining: std::cell::RefCell<usize>,
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
            let mut rem = self.remaining.borrow_mut();
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
        corrupted: std::cell::RefCell<bool>,
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
            let mut done = self.corrupted.borrow_mut();
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
        let (mut cp, ts) = copilot_with_model(Box::new(FailFirstN {
            inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
            remaining: std::cell::RefCell::new(1),
        }));
        let r = cp.ask("How many initial registration attempts did the AMF handle?", ts);
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
        let (mut cp, ts) = copilot_with_model(Box::new(CorruptFirst {
            inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
            corrupted: std::cell::RefCell::new(false),
        }));
        let r = cp.ask("How many initial registration attempts did the AMF handle?", ts);
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
        let (mut cp, ts) = copilot_with_model(Box::new(FailFirstN {
            inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
            remaining: std::cell::RefCell::new(usize::MAX),
        }));
        let r = cp.ask("How many initial registration attempts did the AMF handle?", ts);
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
        let (mut cp, ts) = copilot_with_model(Box::new(FailFirstN {
            inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
            remaining: std::cell::RefCell::new(usize::MAX),
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
        let mut cp = CopilotBuilder::new(db, store)
            .config(CopilotConfig {
                recovery: crate::recovery::RecoveryPolicy::disabled(),
                ..CopilotConfig::default()
            })
            .exemplars(exemplars())
            .model(Box::new(CorruptFirst {
                inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
                corrupted: std::cell::RefCell::new(false),
            }))
            .build();
        let r = cp.ask("How many initial registration attempts did the AMF handle?", ts);
        assert!(matches!(r.error, Some(CopilotError::QueryParse { .. })));
        assert!(r.numeric_answer.is_none());
        assert_eq!(r.trace.recovery.repairs, 0);
        assert_eq!(r.degradation, crate::recovery::DegradationLevel::Full);
    }

    #[test]
    fn cost_is_in_the_papers_ballpark() {
        // §4.2.5: average 4.25 cents per query with GPT-4 pricing.
        let (mut cp, ts) = copilot();
        for q in [
            "How many initial registration attempts did the AMF handle?",
            "What is the paging success rate?",
            "How many authentication requests per second?",
        ] {
            cp.ask(q, ts);
        }
        let mean = cp.meter().mean_cents_per_query();
        assert!(
            (1.5..=8.0).contains(&mean),
            "mean cost {mean}¢ outside plausible band"
        );
    }

    #[test]
    fn registry_reflects_pipeline_activity() {
        let (mut cp, ts) = copilot();
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
        let (mut cp, ts) = copilot_with_model(Box::new(FailFirstN {
            inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
            remaining: std::cell::RefCell::new(usize::MAX),
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
            .filter(|s| s.labels.contains(&("degradation".into(), "degraded".into())))
            .map(|s| match &s.value {
                dio_obs::SeriesValue::Counter(v) => *v,
                _ => 0.0,
            })
            .sum();
        assert_eq!(degraded, 1.0);
        // The fallback recorded its own span.
        assert_eq!(r.trace.invocations("fallback"), 1);
    }

    use crate::extractor::RetrievalMode;

    fn chaos_copilot(weights: [u32; 4], retrieval: RetrievalMode) -> (DioCopilot, i64) {
        let (db, store, ts) = world();
        let cp = CopilotBuilder::new(db, store)
            .config(CopilotConfig {
                retrieval,
                data_chaos: Some(dio_faults::ChaosConfig {
                    seed: 0xda7a,
                    fault_probability: 1.0,
                    weights,
                    latency_spike_micros: 1_000,
                }),
                ..CopilotConfig::default()
            })
            .exemplars(exemplars())
            .build();
        (cp, ts)
    }

    #[test]
    fn default_config_keeps_answers_complete_and_chaos_free() {
        let (mut cp, ts) = copilot();
        let r = cp.ask("How many paging attempts?", ts);
        assert_eq!(r.data_completeness, dio_sandbox::DataCompleteness::Complete);
        assert_eq!(r.trace.recovery.data_faults, 0);
        assert_eq!(r.trace.recovery.index_demotions, 0);
        let snap = cp.obs().registry().snapshot();
        assert_eq!(snap.total(crate::obs::DATA_FAULTS_NAME), 0.0);
        assert_eq!(snap.total(crate::obs::DEMOTIONS_NAME), 0.0);
        // Completeness is still attributed: one complete answer.
        assert_eq!(snap.total(crate::obs::COMPLETENESS_NAME), 1.0);
    }

    #[test]
    fn total_storage_outage_degrades_without_panicking() {
        // Every tsdb operation fails transiently: execution retries the
        // unchanged query (no model repair burned), then degrades; the
        // fallback's candidates fault too, so the answer is NoData —
        // but classified, counted, and panic-free.
        let (mut cp, ts) = chaos_copilot([0, 1, 0, 0], RetrievalMode::Flat);
        let r = cp.ask("How many paging attempts?", ts);
        assert_eq!(r.degradation, crate::recovery::DegradationLevel::Degraded);
        assert!(matches!(r.error, Some(CopilotError::NoData { .. })), "{:?}", r.error);
        assert_eq!(r.data_completeness, dio_sandbox::DataCompleteness::Partial);
        assert!(r.trace.recovery.data_faults > 0);
        // Storage retries are not model repair rounds.
        assert_eq!(r.trace.recovery.repairs, 0);
        let snap = cp.obs().registry().snapshot();
        assert!(snap.total(crate::obs::DATA_FAULTS_NAME) > 0.0);
    }

    #[test]
    fn index_corruption_demotes_ivf_to_flat_then_rebuilds_flat() {
        // Every vecstore read is a bit flip: each ask quarantines the
        // index and falls back to the exact tier, and the sandbox's
        // corrupt reads mark answers partial instead of failing them.
        let mode = RetrievalMode::Ivf { nlist: 16, nprobe: 2 };
        let (mut cp, ts) = chaos_copilot([0, 0, 0, 1], mode);
        assert_eq!(cp.extractor().mode_slug(), "ivf");
        let r1 = cp.ask("How many paging attempts?", ts);
        assert_eq!(cp.extractor().mode_slug(), "flat");
        assert_eq!(r1.trace.recovery.index_demotions, 1);
        assert_eq!(r1.data_completeness, dio_sandbox::DataCompleteness::Partial);
        // What demotion leaves is the index a fresh flat build makes:
        // names, order and score bits.
        let fresh = ContextExtractor::build(&world().0, true);
        let retrieve = |ex: &ContextExtractor| -> Vec<(String, u32)> {
            ex.retrieve_vec("How many service requests?", None, 29)
                .into_iter()
                .map(|r| (r.sample.name, r.score.to_bits()))
                .collect()
        };
        assert_eq!(retrieve(cp.extractor()), retrieve(&fresh));
        let r2 = cp.ask("How many service requests?", ts);
        assert_eq!(cp.extractor().mode_slug(), "flat");
        assert_eq!(r2.trace.recovery.index_demotions, 1);
        assert_eq!(retrieve(cp.extractor()), retrieve(&fresh));
        let snap = cp.obs().registry().snapshot();
        assert_eq!(snap.total(crate::obs::DEMOTIONS_NAME), 2.0);
        assert!(snap.total(crate::obs::DATA_FAULTS_NAME) >= 2.0);
        assert!(r1.render().contains("partial data"));
    }

    /// Compile-time Send/Sync audit for the shared serving state: a
    /// worker pool moves whole pipelines across threads (`Send`) and
    /// shares the read-only retrieval/catalog/tsdb state by reference
    /// (`Sync`). A regression here (an `Rc`, a `RefCell` in shared
    /// state) fails compilation, not runtime.
    #[test]
    fn shared_pipeline_state_is_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send::<DioCopilot>();
        assert_send::<Box<dyn FoundationModel>>();
        assert_send::<CopilotResponse>();
        assert_send_sync::<ContextExtractor>();
        assert_send_sync::<DomainDb>();
        assert_send_sync::<MetricStore>();
        assert_send_sync::<ObsHub>();
        assert_send_sync::<dio_llm::FewShotExample>();
        assert_send_sync::<std::sync::Arc<ContextExtractor>>();
    }

    #[test]
    fn forks_share_state_and_answer_identically() {
        let (cp, ts) = copilot();
        let mut forks: Vec<DioCopilot> = (0..2)
            .map(|_| cp.fork_with_model(Box::new(SimulatedModel::new(ModelProfile::gpt4_sim()))))
            .collect();
        // Shared by handle, not by copy.
        for f in &forks {
            assert!(Arc::ptr_eq(&cp.extractor, &f.extractor));
            assert!(Arc::ptr_eq(&cp.db, &f.db));
            assert!(Arc::ptr_eq(&cp.exemplars, &f.exemplars));
        }
        let q = "How many initial registration attempts did the AMF handle?";
        let mut cp = cp;
        let reference = cp.ask(q, ts);
        for f in &mut forks {
            let r = f.ask(q, ts);
            assert_eq!(r.query, reference.query);
            assert_eq!(r.numeric_answer, reference.numeric_answer);
        }
        // Forks run on separate threads (the whole point).
        let f = cp.fork_with_model(Box::new(SimulatedModel::new(ModelProfile::gpt4_sim())));
        let handle = std::thread::spawn(move || {
            let mut f = f;
            f.ask(q, ts).numeric_answer
        });
        assert_eq!(handle.join().unwrap(), reference.numeric_answer);
    }

    #[test]
    fn feedback_update_bumps_shared_generation_copy_on_write() {
        let (mut cp, ts) = copilot();
        let fork = cp.fork_with_model(Box::new(SimulatedModel::new(ModelProfile::gpt4_sim())));
        assert_eq!(cp.knowledge_generation(), 0);
        let r = cp.ask("What is the LCS NI-LR procedure success rate?", ts);
        let issue = cp.request_expert_help(&r);
        cp.resolve_issue(
            issue,
            "expert:alice",
            Contribution::Note {
                title: "lcs-update".into(),
                text: "LCS NI-LR rates are tracked by amflcs counters.".into(),
            },
        )
        .unwrap();
        // The generation is shared (both sides see the update signal)…
        assert_eq!(cp.knowledge_generation(), 1);
        assert_eq!(fork.knowledge_generation(), 1);
        // …but the catalog update itself was copy-on-write: the fork
        // still reads the pre-update state until it is rebuilt.
        assert!(!Arc::ptr_eq(&cp.db, &fork.db));
    }

    #[test]
    fn precomputed_question_vector_matches_default_path() {
        let (mut cp, ts) = copilot();
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
        let (mut cp, ts) = copilot();
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
        // The standalone trace closed under the deadline class and the
        // flight recorder retained it as its own outcome.
        let retained = cp.obs().recorder().retained();
        assert!(
            retained.iter().any(|t| t.reason == "deadline_exceeded"),
            "reasons: {:?}",
            retained.iter().map(|t| t.reason.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn brownout_ask_degrades_without_any_model_call() {
        let (mut cp, ts) = copilot();
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
        assert_eq!(cp.breaker(), &breaker_before);
        let full = cp.ask(q, ts);
        assert_eq!(full.degradation, DegradationLevel::Full);
    }

    #[test]
    fn model_off_ask_leaves_an_open_breakers_cooldown_untouched() {
        let (mut cp, ts) = copilot_with_model(Box::new(FailFirstN {
            inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
            remaining: std::cell::RefCell::new(usize::MAX),
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
        assert_eq!(cp.breaker(), &open);
    }

    #[test]
    fn request_fidelity_caps_apply_to_one_ask_only() {
        let (mut cp, ts) = copilot_with_model(Box::new(CorruptFirst {
            inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
            corrupted: std::cell::RefCell::new(false),
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
        let (mut cp, ts) = copilot();
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
        let (mut cp1, ts) = copilot();
        let (mut cp2, _) = copilot();
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
        let (mut cp, ts) = copilot();
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
    fn latency_spikes_are_recorded_never_slept() {
        let (mut cp, ts) = chaos_copilot([1, 0, 0, 0], RetrievalMode::Flat);
        let r = cp.ask("How many paging attempts?", ts);
        // Spikes degrade nothing: the answer is full and complete.
        assert!(r.error.is_none(), "{:?}", r.error);
        assert_eq!(r.data_completeness, dio_sandbox::DataCompleteness::Complete);
        assert!(r.trace.recovery.data_faults > 0);
        assert!(cp.retrieval_chaos.as_ref().unwrap().injected_latency_micros() > 0);
    }
}
