//! The end-to-end DIO copilot pipeline.

use crate::answer::{CopilotResponse, RelevantMetric};
use crate::config::CopilotConfig;
use crate::error::CopilotError;
use crate::extractor::ContextExtractor;
use crate::obs::{note_breaker_transition, register_zero_instruments, time_stage};
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
    pub fn breaker(&self) -> &CircuitBreaker {
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

    /// The retrieval top-k currently in effect.
    pub fn top_k(&self) -> usize {
        self.config.top_k
    }

    /// Override the retrieval top-k. The serving tier's brownout
    /// ladder shrinks it under load and restores it as pressure
    /// clears; a floor of 1 keeps retrieval (and with it the degraded
    /// fallback) functional.
    pub fn set_top_k(&mut self, k: usize) {
        self.config.top_k = k.max(1);
    }

    /// The repair-round cap currently in effect.
    pub fn max_repair_rounds(&self) -> usize {
        self.config.recovery.max_repair_rounds
    }

    /// Override the repair-round cap without touching the circuit
    /// breaker (unlike [`DioCopilot::set_recovery`], which resets it) —
    /// the brownout ladder flips this per request.
    pub fn set_max_repair_rounds(&mut self, rounds: usize) {
        self.config.recovery.max_repair_rounds = rounds;
    }

    /// Number of expert-knowledge updates applied so far (via
    /// [`DioCopilot::resolve_issue`]) across this copilot and every
    /// fork sharing its state. Serving-layer answer caches key entries
    /// by this generation and treat a mismatch as an invalidation.
    pub fn knowledge_generation(&self) -> u64 {
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

    /// Answer a question, evaluating data at timestamp `ts`.
    ///
    /// The model and sandbox are both treated as fallible: transient
    /// model failures are retried (bounded, recorded backoff), sandbox
    /// rejections trigger repair rounds under
    /// [`TaskKind::RepairPromql`], and when recovery is exhausted — or
    /// the circuit breaker is open — the copilot degrades to a direct
    /// lookup of the top retrieved metric rather than returning
    /// nothing. See [`RecoveryPolicy`].
    pub fn ask(&mut self, question: &str, ts: i64) -> CopilotResponse {
        self.ask_prepared(question, ts, None)
    }

    /// [`DioCopilot::ask`] with an optional precomputed question
    /// embedding. The serving layer's embedding cache passes vectors
    /// for repeated (normalized-equal) questions here so the retrieval
    /// stage skips re-embedding; `None` embeds as usual. The vector
    /// must come from this pipeline's extractor
    /// ([`ContextExtractor::embed_question`]).
    pub fn ask_prepared(
        &mut self,
        question: &str,
        ts: i64,
        qvec: Option<&dio_embed::Vector>,
    ) -> CopilotResponse {
        self.ask_in_context(question, ts, qvec, None)
    }

    /// [`DioCopilot::ask_prepared`] running inside a caller-owned
    /// trace. With `parent: Some(ctx)` every pipeline stage span
    /// parents under `ctx` and the caller finishes the trace (the
    /// serving tier owns the request trace: queue wait, cache probes,
    /// and this ask all hang off one root). With `None` the copilot
    /// opens and finishes its own trace, stamping its status from the
    /// outcome (degraded → `Degraded`, error → `Error`).
    pub fn ask_in_context(
        &mut self,
        question: &str,
        ts: i64,
        qvec: Option<&dio_embed::Vector>,
        parent: Option<&SpanContext>,
    ) -> CopilotResponse {
        self.ask_budgeted(question, ts, qvec, parent, &Budget::unbounded())
    }

    /// Answer without spending a single model call: the ask runs with
    /// the circuit breaker latched open
    /// ([`CircuitBreaker::latched_open`]), so every stage that would
    /// consult the model takes its existing breaker-open path and
    /// generation lands on the degraded direct-lookup fallback
    /// (labelled [`DegradationLevel::Degraded`]). The real breaker —
    /// including any in-flight cooldown — is restored afterwards. This
    /// is the serving tier's brownout hook for its
    /// answer-cache-or-degraded level.
    pub fn ask_degraded(
        &mut self,
        question: &str,
        ts: i64,
        qvec: Option<&dio_embed::Vector>,
        parent: Option<&SpanContext>,
        budget: &Budget,
    ) -> CopilotResponse {
        let saved = std::mem::replace(&mut self.breaker, CircuitBreaker::latched_open());
        let response = self.ask_budgeted(question, ts, qvec, parent, budget);
        self.breaker = saved;
        response
    }

    /// [`DioCopilot::ask_in_context`] under an explicit request
    /// [`Budget`]. The budget is checked cooperatively between pipeline
    /// stages, before every model call, and before every retry or
    /// repair round; each model call carries a per-call timeout derived
    /// from the remaining budget, and recorded backoff intervals are
    /// capped by it. When the budget lapses (deadline passed or the
    /// token cancelled) the ask aborts with
    /// [`CopilotError::DeadlineExceeded`] — no degraded fallback, no
    /// further model calls — and a standalone trace closes with
    /// [`TraceStatus::DeadlineExceeded`] so the flight recorder retains
    /// it under its own outcome class. An unbounded budget reproduces
    /// [`DioCopilot::ask_in_context`] exactly.
    pub fn ask_budgeted(
        &mut self,
        question: &str,
        ts: i64,
        qvec: Option<&dio_embed::Vector>,
        parent: Option<&SpanContext>,
        budget: &Budget,
    ) -> CopilotResponse {
        let obs = self.obs.clone();
        let owns_trace = parent.is_none();
        let ctx = match parent {
            Some(p) => *p,
            None => obs.tracer().begin_trace(question),
        };
        let ask_start = Instant::now();
        obs.registry()
            .counter(crate::obs::ASKS_NAME, crate::obs::ASKS_HELP)
            .inc();
        let mut usage = TokenUsage::default();
        let mut stats = RecoveryStats::default();
        let trips_before = self.breaker.trips();

        // Dead on arrival: a request whose budget already lapsed (queue
        // wait ate it, or the caller cancelled) does no work at all.
        if budget.expired() {
            return self.deadline_abort(
                question,
                String::new(),
                "retrieve",
                usage,
                stats,
                trips_before,
                &obs,
                &ctx,
                owns_trace,
                ask_start,
            );
        }

        // Stage 0 (chaos runs only): the retrieval index is a data
        // plane too. A transient read fault is retried in place (the
        // schedule decides again); a corrupt read quarantines the
        // index tier and falls back HNSW → IVF → flat; a latency spike
        // is recorded, never slept.
        if let Some(mut injector) = self.retrieval_chaos.take() {
            let mut retries = 0usize;
            while let Some(fault) = injector.decide() {
                stats.data_faults += 1;
                obs.registry()
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
                            stats.index_demotions += 1;
                            obs.registry()
                                .counter_with(
                                    crate::obs::DEMOTIONS_NAME,
                                    crate::obs::DEMOTIONS_HELP,
                                    &[("to", to)],
                                )
                                .inc();
                            obs.tracer().event(
                                &ctx,
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
        let (hits, retrieval) = time_stage(&obs, &ctx, "retrieve", |_| {
            self.extractor
                .retrieve_with_stats_vec(question, qvec, self.config.top_k)
        });
        obs.registry()
            .counter(crate::obs::CANDIDATES_NAME, crate::obs::CANDIDATES_HELP)
            .add(retrieval.candidates_scanned as f64);
        {
            let sim = obs.registry().histogram(
                crate::obs::SIMILARITY_NAME,
                crate::obs::SIMILARITY_HELP,
                &Buckets::unit_fractions(),
            );
            for h in &hits {
                sim.observe(f64::from(h.score));
            }
        }

        let context_items: Vec<ContextItem> = hits
            .iter()
            .map(|h| ContextItem {
                name: h.sample.name.clone(),
                text: first_sentence(&h.sample.text),
                relevance: h.score,
            })
            .collect();

        // Budget checkpoint between retrieval and generation: the model
        // stages are the expensive ones, so lapse here rather than
        // start a call that cannot finish in time.
        if budget.expired() {
            return self.deadline_abort(
                question,
                String::new(),
                "generate",
                usage,
                stats,
                trips_before,
                &obs,
                &ctx,
                owns_trace,
                ask_start,
            );
        }

        // Stage 2: relevant-metric identification. By default this is
        // folded into the generation prompt (one inference, §4.2.5 cost
        // envelope); `two_stage: true` issues the explicit
        // identify-then-generate calls.
        let window = self.model.context_window();
        // Reserve completion room, but never starve the prompt on a
        // small-window model (text-curie-001 still needs its truncated
        // context to see *something*).
        let reserved = self.config.max_output_tokens.min(window / 4);
        let identified: Vec<String> = if self.config.two_stage {
            let identify_prompt = PromptBuilder::new()
                .system(SYSTEM_PROMPT)
                .context(context_items.clone())
                .question(question)
                .task(TaskKind::IdentifyMetrics)
                .build(window, reserved);
            let request = CompletionRequest {
                prompt: identify_prompt,
                max_tokens: self.config.max_output_tokens,
                temperature: self.config.temperature,
                timeout_ms: budget_timeout_ms(budget),
            };
            time_stage(&obs, &ctx, "identify", |_| {
                // Identification is best-effort: on failure the merged
                // full-context prompt covers for the missing selection.
                match Self::call_model(
                    self.model.as_ref(),
                    &mut self.breaker,
                    &self.config.recovery,
                    &request,
                    budget,
                    &mut usage,
                    &mut stats,
                    &obs,
                    &ctx,
                ) {
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
        let selected_items: Vec<ContextItem> = context_items
            .iter()
            .filter(|c| identified.contains(&c.name))
            .cloned()
            .collect();
        let gen_context = if selected_items.is_empty() {
            // Merged mode, or an empty two-stage selection: use the
            // full retrieved context.
            context_items
        } else {
            selected_items
        };
        let mut gen_builder = PromptBuilder::new()
            .system(SYSTEM_PROMPT)
            .context(gen_context.iter().cloned())
            .examples(
                self.exemplars
                    .iter()
                    .take(self.config.max_exemplars)
                    .cloned(),
            )
            .question(question)
            .task(TaskKind::GeneratePromql);
        for f in self.db.functions().take(4) {
            gen_builder = gen_builder.function(&f.name, first_sentence(&f.description));
        }
        let gen_prompt = gen_builder.build(window, reserved);
        let gen_request = CompletionRequest {
            prompt: gen_prompt,
            max_tokens: self.config.max_output_tokens,
            temperature: self.config.temperature,
            timeout_ms: budget_timeout_ms(budget),
        };
        let generated: Result<String, CopilotError> = time_stage(&obs, &ctx, "generate", |_| {
            Self::call_model(
                self.model.as_ref(),
                &mut self.breaker,
                &self.config.recovery,
                &gen_request,
                budget,
                &mut usage,
                &mut stats,
                &obs,
                &ctx,
            )
            .map(|t| t.trim().to_string())
        });

        // Stage 4: sandboxed execution with self-repair. A model error
        // is NOT executed as a query (it used to be pasted in as
        // `# model error: …`); it goes straight to the recovery path.
        // Each sandbox execution and repair re-generation records its
        // own span, so repair rounds are visible per-invocation.
        let resolution = self.execute_with_repair(
            generated,
            question,
            &gen_context,
            &hits,
            ts,
            window,
            reserved,
            budget,
            &mut usage,
            &mut stats,
            &obs,
            &ctx,
        );
        let ExecResolution {
            query,
            canonical,
            numeric_answer,
            values,
            error,
            degradation,
            completeness,
        } = resolution;
        if let Some(CopilotError::DeadlineExceeded { stage }) = &error {
            let stage = stage.clone();
            return self.deadline_abort(
                question,
                query,
                &stage,
                usage,
                stats,
                trips_before,
                &obs,
                &ctx,
                owns_trace,
                ask_start,
            );
        }
        stats.degraded = degradation == DegradationLevel::Degraded;
        obs.registry()
            .counter_with(
                crate::obs::COMPLETENESS_NAME,
                crate::obs::COMPLETENESS_HELP,
                &[("level", completeness.slug())],
            )
            .inc();

        // Relevant metrics for the rendered response: the identified
        // set, falling back to whatever the query references.
        let mut shown = identified.clone();
        if shown.is_empty() {
            if let Ok(expr) = dio_promql::parse(&query) {
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
            Some(time_stage(&obs, &ctx, "dashboard", |_| {
                generate_dashboard(question, &hints, canonical.as_deref(), range)
            }))
        } else {
            None
        };

        let cost_cents = self.model.pricing().cost_cents(usage);
        self.meter.record(usage, self.model.pricing());

        stats.breaker_trips = self.breaker.trips().saturating_sub(trips_before);
        let degradation_slug = degradation.to_string();
        obs.registry()
            .counter_with(
                crate::obs::ANSWERS_NAME,
                crate::obs::ANSWERS_HELP,
                &[("degradation", &degradation_slug)],
            )
            .inc();
        obs.tracer()
            .event(&ctx, "answered", &[("degradation", &degradation_slug)]);
        obs.registry()
            .histogram(
                crate::obs::ASK_DURATION_NAME,
                crate::obs::ASK_DURATION_HELP,
                &Buckets::latency_micros(),
            )
            .observe(dio_obs::micros_u64(ask_start.elapsed()) as f64);
        let trace = PipelineTrace::from_spans(&obs.tracer().spans(ctx.trace_id), stats);
        if owns_trace {
            // Standalone ask: close the trace we opened. Under a
            // serving tier the caller owns the root and stamps the
            // status after its own bookkeeping (cache fill, reply).
            let status = if degradation == DegradationLevel::Degraded {
                TraceStatus::Degraded
            } else if error.is_some() {
                TraceStatus::Error
            } else {
                TraceStatus::Ok
            };
            obs.tracer().finish_trace(&ctx, status);
        }

        let final_query = canonical.unwrap_or(query);
        CopilotResponse {
            question: question.to_string(),
            relevant_metrics,
            explanation: dio_promql::explain_query(&final_query),
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

    /// Place one model call under the recovery policy: the circuit
    /// breaker gates the call, transient failures are retried up to the
    /// policy bound, and the deterministic backoff schedule is recorded
    /// (never slept). The request `budget` gates every attempt — a
    /// lapsed budget aborts before the model is touched — and caps each
    /// recorded backoff interval by the time actually left. Every
    /// admitted call stamps a `model_call` event carrying its
    /// trace-clock offset, so a post-mortem can prove no call started
    /// after the deadline.
    #[allow(clippy::too_many_arguments)]
    fn call_model(
        model: &dyn FoundationModel,
        breaker: &mut CircuitBreaker,
        policy: &RecoveryPolicy,
        request: &CompletionRequest,
        budget: &Budget,
        usage: &mut TokenUsage,
        stats: &mut RecoveryStats,
        obs: &ObsHub,
        ctx: &SpanContext,
    ) -> Result<String, CopilotError> {
        let mut retry = 0usize;
        loop {
            if budget.expired() {
                return Err(CopilotError::DeadlineExceeded {
                    stage: "model".into(),
                });
            }
            let gate = breaker.state();
            let admitted = breaker.allow();
            note_breaker_transition(obs, ctx, gate, breaker.state());
            if !admitted {
                return Err(CopilotError::ModelUnavailable {
                    message: "circuit breaker open; model call skipped".into(),
                    attempts: stats.attempts,
                });
            }
            stats.attempts += 1;
            let at = obs.tracer().clock_micros(ctx).to_string();
            obs.tracer().event(ctx, "model_call", &[("at_micros", &at)]);
            match model.complete(request) {
                Ok(c) => {
                    usage.add(c.usage);
                    let before = breaker.state();
                    breaker.record_success();
                    note_breaker_transition(obs, ctx, before, breaker.state());
                    return Ok(c.text);
                }
                Err(e) => {
                    let before = breaker.state();
                    breaker.record_failure();
                    note_breaker_transition(obs, ctx, before, breaker.state());
                    if policy.enabled && e.is_transient() && retry < policy.max_retries {
                        stats.retries += 1;
                        // Backoff is recorded, never slept; cap the
                        // recorded interval by the budget actually
                        // left so the schedule stays honest about what
                        // a real sleep could have been.
                        let backoff = budget
                            .cap(std::time::Duration::from_millis(policy.backoff_ms(retry)))
                            .as_millis() as u64;
                        stats.backoff_schedule_ms.push(backoff);
                        obs.registry()
                            .counter(crate::obs::RETRIES_NAME, crate::obs::RETRIES_HELP)
                            .inc();
                        obs.registry()
                            .counter(crate::obs::BACKOFF_NAME, crate::obs::BACKOFF_HELP)
                            .add(backoff as f64);
                        obs.tracer().event(
                            ctx,
                            "model_retry",
                            &[("backoff_ms", &backoff.to_string())],
                        );
                        retry += 1;
                        continue;
                    }
                    return Err(CopilotError::from_model(&e, stats.attempts));
                }
            }
        }
    }

    /// Wind down an ask whose budget lapsed: count it (labelled by the
    /// stage that observed the lapse), stamp a `deadline_exceeded`
    /// event carrying the trace-clock offset, record the ask duration
    /// and any cost already incurred, and — for standalone asks — close
    /// the trace as [`TraceStatus::DeadlineExceeded`] so the flight
    /// recorder retains it under its own outcome class. No answer
    /// counter and no `answered` event: a deadline abort is not an
    /// answer.
    #[allow(clippy::too_many_arguments)]
    fn deadline_abort(
        &mut self,
        question: &str,
        query: String,
        stage: &str,
        usage: TokenUsage,
        mut stats: RecoveryStats,
        trips_before: usize,
        obs: &ObsHub,
        ctx: &SpanContext,
        owns_trace: bool,
        ask_start: Instant,
    ) -> CopilotResponse {
        obs.registry()
            .counter_with(
                crate::obs::DEADLINE_NAME,
                crate::obs::DEADLINE_HELP,
                &[("stage", stage)],
            )
            .inc();
        let at = obs.tracer().clock_micros(ctx).to_string();
        obs.tracer().event(
            ctx,
            "deadline_exceeded",
            &[("stage", stage), ("at_micros", &at)],
        );
        stats.breaker_trips = self.breaker.trips().saturating_sub(trips_before);
        obs.registry()
            .histogram(
                crate::obs::ASK_DURATION_NAME,
                crate::obs::ASK_DURATION_HELP,
                &Buckets::latency_micros(),
            )
            .observe(dio_obs::micros_u64(ask_start.elapsed()) as f64);
        let cost_cents = self.model.pricing().cost_cents(usage);
        self.meter.record(usage, self.model.pricing());
        let trace = PipelineTrace::from_spans(&obs.tracer().spans(ctx.trace_id), stats);
        if owns_trace {
            obs.tracer().finish_trace(ctx, TraceStatus::DeadlineExceeded);
        }
        CopilotResponse {
            question: question.to_string(),
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

    /// Execute the generated query, running bounded repair rounds on
    /// sandbox rejection and falling back to a degraded direct metric
    /// lookup when recovery is exhausted (or generation itself failed).
    #[allow(clippy::too_many_arguments)]
    fn execute_with_repair(
        &mut self,
        generated: Result<String, CopilotError>,
        question: &str,
        gen_context: &[ContextItem],
        hits: &[crate::extractor::Retrieved],
        ts: i64,
        window: usize,
        reserved: usize,
        budget: &Budget,
        usage: &mut TokenUsage,
        stats: &mut RecoveryStats,
        obs: &ObsHub,
        ctx: &SpanContext,
    ) -> ExecResolution {
        let policy = self.config.recovery.clone();
        let mut query = match generated {
            Ok(q) => q,
            // A lapsed budget is not a failure to recover from: running
            // the degraded fallback would be *more* work past the
            // deadline. Surface it untouched.
            Err(e @ CopilotError::DeadlineExceeded { .. }) => {
                return ExecResolution::deadline(String::new(), e);
            }
            Err(e) => {
                // Satellite of the recovery design: a model failure used
                // to be executed as a fake `# model error: …` query.
                // Now it skips execution and degrades.
                return self.degraded_fallback(String::new(), e, hits, ts, stats, obs, ctx);
            }
        };

        let mut rounds = 0usize;
        let mut storage_retries = 0usize;
        let error = loop {
            if budget.expired() {
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
            let executed = time_stage(obs, ctx, "execute", |sctx| {
                self.sandbox
                    .execute_traced(&query, ts, Some((obs.tracer(), sctx)))
            });
            match executed {
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
                Err(sandbox_err) => {
                    // A storage fault is the store's failure, not the
                    // query's: retry the same query unchanged (bounded)
                    // instead of burning a model repair round on it.
                    if sandbox_err.is_storage_fault() {
                        stats.data_faults += 1;
                        obs.registry()
                            .counter_with(
                                crate::obs::DATA_FAULTS_NAME,
                                crate::obs::DATA_FAULTS_HELP,
                                &[("layer", "tsdb"), ("kind", "transient_io")],
                            )
                            .inc();
                        obs.tracer().event(
                            ctx,
                            "storage_retry",
                            &[("error", &sandbox_err.to_string())],
                        );
                        if policy.enabled && storage_retries < policy.max_retries {
                            storage_retries += 1;
                            continue;
                        }
                        break CopilotError::from_sandbox(&sandbox_err);
                    }
                    let classified = CopilotError::from_sandbox(&sandbox_err);
                    if !policy.enabled || rounds >= policy.max_repair_rounds {
                        break classified;
                    }
                    rounds += 1;
                    stats.repairs += 1;
                    obs.registry()
                        .counter(crate::obs::REPAIRS_NAME, crate::obs::REPAIRS_HELP)
                        .inc();
                    obs.tracer().event(
                        ctx,
                        "repair_round",
                        &[("round", &rounds.to_string()), ("error", &sandbox_err.to_string())],
                    );
                    // Re-prompt with the failed query and the sandbox's
                    // structured hint riding in the system section; the
                    // question/context/examples stay identical.
                    let hint = sandbox_err.repair_hint(&query);
                    let mut repair_builder = PromptBuilder::new()
                        .system(format!(
                            "{SYSTEM_PROMPT}\nThe previous query failed in the sandbox.\n\
                             Failed query: {query}\nSandbox: {sandbox_err}\nFix: {hint}"
                        ))
                        .context(gen_context.to_vec())
                        .examples(
                            self.exemplars
                                .iter()
                                .take(self.config.max_exemplars)
                                .cloned(),
                        )
                        .question(question)
                        .task(TaskKind::RepairPromql);
                    for f in self.db.functions().take(4) {
                        repair_builder =
                            repair_builder.function(&f.name, first_sentence(&f.description));
                    }
                    let repair_request = CompletionRequest {
                        prompt: repair_builder.build(window, reserved),
                        max_tokens: self.config.max_output_tokens,
                        temperature: self.config.temperature,
                        timeout_ms: budget_timeout_ms(budget),
                    };
                    let repaired = time_stage(obs, ctx, "generate", |_| {
                        Self::call_model(
                            self.model.as_ref(),
                            &mut self.breaker,
                            &policy,
                            &repair_request,
                            budget,
                            usage,
                            stats,
                            obs,
                            ctx,
                        )
                    });
                    match repaired {
                        Ok(fixed) => query = fixed.trim().to_string(),
                        Err(model_err) => break model_err,
                    }
                }
            }
        };

        if matches!(error, CopilotError::DeadlineExceeded { .. }) {
            // Same rule as above: the deadline forbids the fallback.
            return ExecResolution::deadline(query, error);
        }
        if policy.enabled {
            self.degraded_fallback(query, error, hits, ts, stats, obs, ctx)
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
    #[allow(clippy::too_many_arguments)]
    fn degraded_fallback(
        &mut self,
        failed_query: String,
        error: CopilotError,
        hits: &[crate::extractor::Retrieved],
        ts: i64,
        stats: &mut RecoveryStats,
        obs: &ObsHub,
        ctx: &SpanContext,
    ) -> ExecResolution {
        stats.degraded = true;
        obs.tracer()
            .event(ctx, "degraded_fallback", &[("error", &error.to_string())]);
        time_stage(obs, ctx, "fallback", |sctx| {
            for h in hits.iter().take(5) {
                let candidate = h.sample.name.clone();
                if let Ok(out) = self
                    .sandbox
                    .execute_traced(&candidate, ts, Some((obs.tracer(), sctx)))
                {
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

/// Per-call model timeout derived from the remaining budget, in whole
/// milliseconds. Unbounded budgets impose no cap.
fn budget_timeout_ms(budget: &Budget) -> Option<u64> {
    budget.remaining().map(|left| left.as_millis() as u64)
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
    use dio_catalog::generator::{generate_catalog, CatalogConfig};
    use dio_catalog::types::MetricRole;
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
    fn index_corruption_demotes_hnsw_to_ivf_to_flat() {
        // Every vecstore read is a bit flip: each ask quarantines the
        // current tier and falls back one level, and the sandbox's
        // corrupt reads mark answers partial instead of failing them.
        let (mut cp, ts) =
            chaos_copilot([0, 0, 0, 1], RetrievalMode::Hnsw { ef_search: 32 });
        assert_eq!(cp.extractor().mode_slug(), "hnsw");
        let r1 = cp.ask("How many paging attempts?", ts);
        assert_eq!(cp.extractor().mode_slug(), "ivf");
        assert_eq!(r1.trace.recovery.index_demotions, 1);
        assert_eq!(r1.data_completeness, dio_sandbox::DataCompleteness::Partial);
        let r2 = cp.ask("How many service requests?", ts);
        assert_eq!(cp.extractor().mode_slug(), "flat");
        assert_eq!(r2.trace.recovery.index_demotions, 1);
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
        let prepared = cp.ask_prepared(q, ts, Some(&vec));
        let plain = cp.ask(q, ts);
        assert_eq!(prepared.query, plain.query);
        assert_eq!(prepared.numeric_answer, plain.numeric_answer);
    }

    #[test]
    fn lapsed_budget_aborts_before_any_model_call() {
        let (mut cp, ts) = copilot();
        let budget = Budget::within(std::time::Duration::ZERO);
        let r = cp.ask_budgeted("How many paging attempts?", ts, None, None, &budget);
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
        let r = cp.ask_degraded(q, ts, None, None, &Budget::unbounded());
        assert_eq!(r.degradation, DegradationLevel::Degraded);
        let snap = cp.obs().registry().snapshot();
        assert_eq!(
            snap.total("dio_llm_model_calls_total"),
            0.0,
            "cache-only brownout must not touch the model"
        );
        // The real breaker came back: the next plain ask runs the full
        // pipeline again.
        assert_eq!(cp.breaker().state(), crate::BreakerState::Closed);
        let full = cp.ask(q, ts);
        assert_eq!(full.degradation, DegradationLevel::Full);
    }

    #[test]
    fn cancellation_aborts_like_a_lapsed_deadline() {
        let (mut cp, ts) = copilot();
        let budget = Budget::unbounded();
        budget.cancel();
        let r = cp.ask_budgeted("How many paging attempts?", ts, None, None, &budget);
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
        let b = cp2.ask_budgeted(q, ts, None, None, &Budget::unbounded());
        assert_eq!(a.query, b.query);
        assert_eq!(a.numeric_answer, b.numeric_answer);
        assert!(b.error.is_none());
    }

    #[test]
    fn generous_budget_caps_model_calls_without_changing_answers() {
        let (mut cp, ts) = copilot();
        let budget = Budget::within(std::time::Duration::from_secs(3600));
        let r = cp.ask_budgeted(
            "How many initial registration attempts did the AMF handle?",
            ts,
            None,
            None,
            &budget,
        );
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
