//! The concurrent query service.
//!
//! [`QueryService::spawn`] stamps out one pipeline instance per worker
//! thread via [`DioCopilot::fork_with_model`]: every worker shares the
//! prototype's read-only state (catalog, vector index, resident tsdb,
//! few-shot pool) behind `Arc`s and owns only its per-request mutable
//! state (model handle, sandbox audit log, cost meter, breaker).
//!
//! The request path:
//!
//! 1. **Admission** — the tenant's token bucket is charged
//!    ([`crate::RateLimiter`]); a dry bucket sheds with
//!    `TenantThrottle` and a refill-derived `retry_after`. Admitted
//!    requests enter the bounded earliest-deadline-first queue
//!    ([`crate::AdmissionQueue`]); a full queue sheds with `QueueFull`.
//! 2. **Caching** — a worker first consults the answer cache keyed on
//!    `(eval_ts, normalized question)`; a hit skips the pipeline
//!    entirely. On a miss it consults the embedding cache for the
//!    question vector before falling back to embedding, then runs
//!    [`DioCopilot::ask_with`] with the shared vector. Both caches
//!    are stamped with the copilot's knowledge generation so
//!    feedback-loop catalog updates invalidate them atomically.
//! 3. **Reply** — every *accepted* request receives exactly one
//!    [`ServeOutcome`] on its ticket, even if its deadline lapsed in
//!    the queue (`DeadlineExpired`), the pipeline panicked
//!    (`WorkerPanic`), or the service shut down first (drained, then
//!    served — never dropped).

use crate::admission::{AdmissionQueue, PushRefused, ShedReason};
use crate::brownout::{BrownoutConfig, BrownoutController, BrownoutLevel};
use crate::cache::{CacheStats, GenLru};
use crate::tenant::{RateLimiter, TenantPolicy};
use dio_copilot::{AskRequest, CopilotError, CopilotResponse, DioCopilot};
use dio_gateway::{
    normalize_question, FlushRecord, FollowerOutcome, Join, ModelGateway, Probe, SemanticCache,
    SemanticConfig, SemanticStats, Singleflight,
};
use dio_llm::{CostLedger, FoundationModel};
use dio_obs::{Buckets, Budget, Counter, Gauge, Histogram, ObsHub, SpanContext, TraceStatus};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Embedding-cache capacity (entries).
const EMBED_CACHE_CAPACITY: usize = 4096;

/// Service sizing and policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker threads (= concurrent pipeline instances).
    pub workers: usize,
    /// Admission-queue capacity; arrivals beyond it are shed.
    pub queue_depth: usize,
    /// Deadline granted to requests that do not specify one.
    pub default_deadline: Duration,
    /// Per-tenant token-bucket policy.
    pub tenant: TenantPolicy,
    /// Answer-cache capacity (entries). 0 disables it.
    pub answer_cache_capacity: usize,
    /// Brownout-ladder thresholds and hysteresis
    /// ([`BrownoutConfig::disabled`] for the binary-shedding baseline).
    pub brownout: BrownoutConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 8,
            queue_depth: 64,
            default_deadline: Duration::from_secs(30),
            tenant: TenantPolicy::default(),
            answer_cache_capacity: 1024,
            brownout: BrownoutConfig::default(),
        }
    }
}

/// Model-plane gateway policy for [`QueryService::spawn_gateway`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayConfig {
    /// Semantic answer-cache policy; `None` disables the layer.
    pub semantic: Option<SemanticConfig>,
    /// Whether concurrent identical questions singleflight-coalesce.
    pub coalesce: bool,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            semantic: Some(SemanticConfig::default()),
            coalesce: true,
        }
    }
}

/// Snapshot of the gateway plane's counters and cost ledger.
#[derive(Debug, Clone)]
pub struct GatewayStats {
    /// The gateway's cost ledger: every successful upstream call,
    /// billed once.
    pub ledger: CostLedger,
    /// Semantic-cache counters, when the layer is enabled.
    pub semantic: Option<SemanticStats>,
    /// Requests that led a singleflight epoch.
    pub leaders: u64,
    /// Requests that attached to another request's epoch.
    pub followers: u64,
    /// Follower waits that ended in a leader abandon.
    pub abandoned: u64,
    /// Follower waits that ran out of budget.
    pub timeouts: u64,
    /// The (bounded) audit log, one record per model request.
    pub flush_log: Vec<FlushRecord>,
}

/// The per-service gateway plane: one singleflight map, one semantic
/// cache, one shared model front-end — all workers go through them.
struct GatewayPlane {
    flights: Singleflight<CopilotResponse>,
    semantic: Option<SemanticCache<CopilotResponse>>,
    model: Arc<ModelGateway>,
    coalesce: bool,
    role_leader: Counter,
    role_follower: Counter,
    role_abandoned: Counter,
    role_timeout: Counter,
}

impl GatewayPlane {
    fn new(obs: &ObsHub, config: &GatewayConfig, model: Arc<ModelGateway>) -> Self {
        let r = obs.registry();
        let role = |role: &str| {
            r.counter_with(
                "dio_gateway_singleflight_total",
                "Singleflight joins at the serve tier, by role/outcome.",
                &[("role", role)],
            )
        };
        GatewayPlane {
            flights: Singleflight::new(),
            semantic: config
                .semantic
                .map(|sc| SemanticCache::new(r, sc)),
            model,
            coalesce: config.coalesce,
            role_leader: role("leader"),
            role_follower: role("follower"),
            role_abandoned: role("abandoned"),
            role_timeout: role("timeout"),
        }
    }
}

/// One tenant question bound to an evaluation timestamp.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct QueryRequest {
    /// Tenant identity for fair-share accounting.
    pub tenant: String,
    /// The natural-language question.
    pub question: String,
    /// Evaluation timestamp (ms) the question is asked *as of*.
    pub ts: i64,
}

impl QueryRequest {
    /// Convenience constructor.
    pub fn new(tenant: impl Into<String>, question: impl Into<String>, ts: i64) -> Self {
        QueryRequest {
            tenant: tenant.into(),
            question: question.into(),
            ts,
        }
    }
}

/// A successfully served answer plus serving telemetry.
#[derive(Debug, Clone)]
pub struct ServedAnswer {
    /// The pipeline's (or cache's) response.
    pub response: CopilotResponse,
    /// Whether the answer cache short-circuited the pipeline.
    pub answer_cache_hit: bool,
    /// Whether a semantic-cache neighbor's answer was served (exact
    /// caches missed but an embedding neighbor cleared the floor).
    pub semantic_cache_hit: bool,
    /// Whether this answer was coalesced off another in-flight
    /// request's computation (singleflight follower).
    pub coalesced: bool,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Time the worker spent producing the response.
    pub service_time: Duration,
    /// Index of the worker that served it.
    pub worker: usize,
}

/// A refusal, with a backoff hint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shed {
    /// Why the request was not answered.
    pub reason: ShedReason,
    /// How long the caller should wait before retrying.
    pub retry_after: Duration,
}

/// Terminal outcome of one submitted request.
#[derive(Debug, Clone)]
pub enum ServeOutcome {
    /// Served to completion.
    Answered(Box<ServedAnswer>),
    /// Refused or abandoned.
    Shed(Shed),
}

impl ServeOutcome {
    /// The answer, if any.
    pub fn answer(&self) -> Option<&ServedAnswer> {
        match self {
            ServeOutcome::Answered(a) => Some(a),
            ServeOutcome::Shed(_) => None,
        }
    }

    /// The shed record, if any.
    pub fn shed(&self) -> Option<Shed> {
        match self {
            ServeOutcome::Answered(_) => None,
            ServeOutcome::Shed(s) => Some(*s),
        }
    }
}

/// Handle to one accepted request; resolves to exactly one outcome.
pub struct Ticket {
    rx: mpsc::Receiver<ServeOutcome>,
}

impl Ticket {
    /// Block until the request resolves. A severed channel (worker
    /// thread died outside the panic guard) reports as `WorkerPanic`
    /// rather than hanging or panicking the caller.
    pub fn wait(self) -> ServeOutcome {
        self.rx.recv().unwrap_or(ServeOutcome::Shed(Shed {
            reason: ShedReason::WorkerPanic,
            retry_after: Duration::from_millis(100),
        }))
    }
}

struct Job {
    req: QueryRequest,
    key: String,
    submitted: Instant,
    reply: mpsc::Sender<ServeOutcome>,
    /// Root span context of the request's trace, begun at submit and
    /// carried by value across the queue/thread boundary. Queue wait,
    /// cache probes, pipeline stages, and shard reads all parent here.
    ctx: SpanContext,
    /// The request's deadline-and-cancellation budget, created at
    /// submit and carried by value alongside the span context. Workers
    /// check it between pipeline stages; the copilot checks it before
    /// every model call, retry, and repair round.
    budget: Budget,
}

struct Metrics {
    answered: Counter,
    shed_total: Counter,
    shed: HashMap<ShedReason, Counter>,
    queue_depth: Gauge,
    queue_wait: Histogram,
    duration_hit: Histogram,
    duration_miss: Histogram,
    worker_panics: Counter,
}

impl Metrics {
    fn register(obs: &ObsHub) -> Self {
        let r = obs.registry();
        let shed = ShedReason::all()
            .into_iter()
            .map(|reason| {
                (
                    reason,
                    r.counter_with(
                        "dio_serve_shed_total",
                        "requests shed by the query service, by reason",
                        &[("reason", reason.label())],
                    ),
                )
            })
            .collect();
        let duration = |cache: &str| {
            r.histogram_with(
                "dio_serve_request_duration_micros",
                "submit-to-reply latency of answered requests",
                &Buckets::latency_micros(),
                &[("cache", cache)],
            )
        };
        Metrics {
            answered: r.counter_with(
                "dio_serve_requests_total",
                "requests resolved by the query service, by outcome",
                &[("outcome", "answered")],
            ),
            shed_total: r.counter_with(
                "dio_serve_requests_total",
                "requests resolved by the query service, by outcome",
                &[("outcome", "shed")],
            ),
            shed,
            queue_depth: r.gauge(
                "dio_serve_queue_depth",
                "requests currently in the admission queue",
            ),
            queue_wait: r.histogram(
                "dio_serve_queue_wait_micros",
                "time requests spend queued before a worker picks them up",
                &Buckets::latency_micros(),
            ),
            duration_hit: duration("hit"),
            duration_miss: duration("miss"),
            worker_panics: r.counter(
                "dio_serve_worker_panics_total",
                "pipeline panics caught by the worker guard",
            ),
        }
    }

    fn count_shed(&self, reason: ShedReason) {
        self.shed_total.inc();
        if let Some(c) = self.shed.get(&reason) {
            c.inc();
        }
    }
}

struct Core {
    queue: AdmissionQueue<Job>,
    limiter: RateLimiter,
    answers: GenLru<CopilotResponse>,
    embeds: GenLru<Arc<dio_embed::Vector>>,
    generation: Arc<AtomicU64>,
    metrics: Metrics,
    brownout: Mutex<BrownoutController>,
    config: ServeConfig,
    obs: ObsHub,
    gateway: Option<GatewayPlane>,
}

impl Core {
    /// Refuse a request: advise a backoff from the live backlog (the
    /// queue drains at the worker pool's rate, so the hint grows with
    /// it; `floor` is the minimum), count the shed, and close the
    /// request's trace as `status` behind a `shed` event.
    fn refuse(
        &self,
        ctx: &SpanContext,
        reason: ShedReason,
        floor: Duration,
        status: TraceStatus,
    ) -> Shed {
        let retry_after = retry_hint(self.queue.len(), self.config.workers, floor);
        self.metrics.count_shed(reason);
        self.obs
            .tracer()
            .event(ctx, "shed", &[("reason", reason.label())]);
        self.obs.tracer().finish_trace(ctx, status);
        Shed {
            reason,
            retry_after,
        }
    }
}

/// The concurrent multi-tenant query service.
pub struct QueryService {
    core: Arc<Core>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryService {
    /// Launch the service: fork `config.workers` pipeline instances
    /// off `prototype` (each with a model from `make_model`) and start
    /// their worker threads. The prototype itself is not consumed and
    /// can keep serving as a sequential baseline or feedback-loop
    /// writer; its knowledge-generation bumps invalidate this
    /// service's caches.
    pub fn spawn<F>(prototype: &DioCopilot, make_model: F, config: ServeConfig) -> Self
    where
        F: FnMut() -> Box<dyn FoundationModel>,
    {
        Self::spawn_inner(prototype, config, None, make_model)
    }

    /// Launch the service with the **model-plane gateway** between the
    /// workers and `upstream`: every worker's pipeline calls route
    /// through one shared [`ModelGateway`] (singleflight coalescing
    /// and the semantic cache sit on the request path in front of it).
    /// `upstream` is the one real model — typically a
    /// `SimulatedModel`, optionally under a `FaultyModel` — shared by
    /// all workers, whose calls run on it concurrently: each model call
    /// a pipeline makes goes upstream the moment it is made, as a call
    /// of its own.
    pub fn spawn_gateway(
        prototype: &DioCopilot,
        upstream: Box<dyn FoundationModel>,
        config: ServeConfig,
        gateway: GatewayConfig,
    ) -> Self {
        let obs = prototype.obs().clone();
        let model = ModelGateway::new(upstream, obs.registry());
        let plane = GatewayPlane::new(&obs, &gateway, Arc::clone(&model));
        Self::spawn_inner(prototype, config, Some(plane), move || model.handle())
    }

    fn spawn_inner(
        prototype: &DioCopilot,
        config: ServeConfig,
        gateway: Option<GatewayPlane>,
        mut make_model: impl FnMut() -> Box<dyn FoundationModel>,
    ) -> Self {
        let obs = prototype.obs().clone();
        let brownout = Mutex::new(BrownoutController::new(
            config.brownout,
            config.queue_depth,
            config.default_deadline,
            obs.registry(),
        ));
        let core = Arc::new(Core {
            queue: AdmissionQueue::new(config.queue_depth),
            brownout,
            limiter: RateLimiter::new(config.tenant),
            answers: GenLru::new(obs.registry(), "answer", config.answer_cache_capacity),
            embeds: GenLru::new(obs.registry(), "embed", EMBED_CACHE_CAPACITY),
            generation: prototype.generation_handle(),
            metrics: Metrics::register(&obs),
            config: config.clone(),
            obs,
            gateway,
        });
        let workers = (0..config.workers.max(1))
            .map(|idx| {
                let copilot = prototype.fork_with_model(make_model());
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("dio-serve-{idx}"))
                    .spawn(move || worker_loop(core, copilot, idx))
                    .expect("spawn dio-serve worker")
            })
            .collect();
        QueryService { core, workers }
    }

    /// Submit with the default deadline.
    pub fn submit(&self, req: QueryRequest) -> Result<Ticket, Shed> {
        let deadline = self.core.config.default_deadline;
        self.submit_with_deadline(req, deadline)
    }

    /// Submit with an explicit deadline budget. Sheds synchronously on
    /// throttle/overload/brownout; an `Ok` ticket is guaranteed a
    /// reply.
    pub fn submit_with_deadline(&self, req: QueryRequest, budget: Duration) -> Result<Ticket, Shed> {
        let now = Instant::now();
        let tracer = self.core.obs.tracer();
        let ctx = tracer.begin_trace(&req.question);
        tracer.event(&ctx, "submitted", &[("tenant", &req.tenant)]);
        // The Shed rung refuses arrivals only while a backlog actually
        // exists. The controller observes at worker pickup, so once the
        // queue drains the next admitted request is what produces the
        // clear observations that let the ladder climb back — an
        // empty-queue refusal would latch the service shut forever.
        if self.core.brownout.lock().unwrap().level() == BrownoutLevel::Shed
            && !self.core.queue.is_empty()
        {
            return Err(self.core.refuse(
                &ctx,
                ShedReason::Brownout,
                Duration::ZERO,
                TraceStatus::Shed,
            ));
        }
        if let Err(refill) = self.core.limiter.try_acquire_at(&req.tenant, now) {
            // The refill time floors the hint; a backed-up queue
            // raises it further.
            return Err(self.core.refuse(
                &ctx,
                ShedReason::TenantThrottle,
                refill,
                TraceStatus::Shed,
            ));
        }
        let (tx, rx) = mpsc::channel();
        let job = Job {
            key: normalize_question(&req.question),
            req,
            submitted: now,
            reply: tx,
            ctx,
            budget: Budget::with_deadline(now + budget),
        };
        match self.core.queue.try_push(job, now + budget) {
            Ok(()) => {
                self.core
                    .metrics
                    .queue_depth
                    .set(self.core.queue.len() as f64);
                Ok(Ticket { rx })
            }
            Err(PushRefused { reason, item: job }) => {
                // The tenant was charged a token on admission but the
                // service refused the work — refund it, or a queue
                // backup (say, mid-failover) throttles the tenant's
                // retries on top of shedding them.
                self.core.limiter.refund(&job.req.tenant);
                Err(self
                    .core
                    .refuse(&job.ctx, reason, Duration::ZERO, TraceStatus::Shed))
            }
        }
    }

    /// The current brownout-ladder position.
    pub fn brownout_level(&self) -> BrownoutLevel {
        self.core.brownout.lock().unwrap().level()
    }

    /// Submit and block for the outcome (convenience for tests and
    /// sequential callers).
    pub fn ask(&self, tenant: &str, question: &str, ts: i64) -> ServeOutcome {
        match self.submit(QueryRequest::new(tenant, question, ts)) {
            Ok(ticket) => ticket.wait(),
            Err(shed) => ServeOutcome::Shed(shed),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.core.config
    }

    /// The shared observability hub (same registry as the copilots).
    pub fn obs(&self) -> &ObsHub {
        &self.core.obs
    }

    /// Answer-cache counters.
    pub fn answer_cache_stats(&self) -> CacheStats {
        self.core.answers.stats()
    }

    /// Embedding-cache counters.
    pub fn embed_cache_stats(&self) -> CacheStats {
        self.core.embeds.stats()
    }

    /// Gateway-plane counters and cost ledger, when the service was
    /// spawned with [`QueryService::spawn_gateway`].
    pub fn gateway_stats(&self) -> Option<GatewayStats> {
        self.core.gateway.as_ref().map(|gw| GatewayStats {
            ledger: gw.model.ledger(),
            semantic: gw.semantic.as_ref().map(|s| s.stats()),
            leaders: gw.role_leader.value() as u64,
            followers: gw.role_follower.value() as u64,
            abandoned: gw.role_abandoned.value() as u64,
            timeouts: gw.role_timeout.value() as u64,
            flush_log: gw.model.flush_log(),
        })
    }

    /// Requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.core.queue.len()
    }

    /// Total sheds so far (all reasons).
    pub fn shed_count(&self) -> u64 {
        self.core.metrics.shed_total.value() as u64
    }

    /// Stop accepting work, serve everything already accepted, and
    /// join the workers.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.core.queue.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Backoff hint derived from live pressure instead of a constant: the
/// queue drains at the worker pool's rate, so the advised wait grows
/// with the queued-requests-per-worker backlog; `floor` (the tenant
/// bucket's refill time, where relevant) sets the minimum.
fn retry_hint(queue_len: usize, workers: usize, floor: Duration) -> Duration {
    const BASE_MS: u64 = 10;
    const PER_QUEUED_MS: u64 = 25;
    const CAP_MS: u64 = 5_000;
    let backlog_ms =
        BASE_MS.saturating_add(PER_QUEUED_MS.saturating_mul(queue_len as u64) / workers.max(1) as u64);
    floor.max(Duration::from_millis(backlog_ms.min(CAP_MS)))
}

fn worker_loop(core: Arc<Core>, mut copilot: DioCopilot, worker: usize) {
    while let Some((job, deadline)) = core.queue.pop() {
        core.metrics.queue_depth.set(core.queue.len() as f64);
        let picked_up = Instant::now();
        let queue_wait = picked_up.duration_since(job.submitted);
        core.metrics
            .queue_wait
            .observe(queue_wait.as_micros() as f64);
        // Queue wait becomes its own span: it starts at the trace root
        // (submit time ≈ offset 0) and ends at worker pickup, so a
        // dumped tree decomposes submit-to-reply into wait + service.
        let tracer = core.obs.tracer();
        let wait_ctx = tracer.child_of(&job.ctx);
        tracer.record_span(
            &wait_ctx,
            "queue_wait",
            0,
            dio_obs::micros_u64(queue_wait),
            &[("worker", &worker.to_string())],
        );
        // One ladder observation per pickup: queue occupancy plus the
        // wait this request just paid. A transition lands on this
        // request's trace as a span event.
        let (level, transition) = core
            .brownout
            .lock()
            .unwrap()
            .observe(core.queue.len(), queue_wait);
        if let Some((from, to)) = transition {
            let at = tracer.clock_micros(&job.ctx).to_string();
            tracer.event(
                &job.ctx,
                "brownout",
                &[("from", from.label()), ("to", to.label()), ("at_micros", &at)],
            );
        }
        // `None`: the deadline lapsed in the queue, nothing is served.
        let served = if picked_up >= deadline || job.budget.expired() {
            None
        } else {
            let pickup = Pickup {
                core: &core,
                job: &job,
                queue_wait,
                picked_up,
                worker,
                level,
            };
            Some(catch_unwind(AssertUnwindSafe(|| {
                pickup.serve(&mut copilot)
            })))
        };
        let outcome = match served {
            None => ServeOutcome::Shed(core.refuse(
                &job.ctx,
                ShedReason::DeadlineExpired,
                Duration::ZERO,
                TraceStatus::Shed,
            )),
            Some(Ok(Ok(answer))) => {
                core.metrics.answered.inc();
                tracer.finish_trace(&job.ctx, answer.response.trace_status());
                ServeOutcome::Answered(Box::new(answer))
            }
            // The budget lapsed between stages: the rest of the work
            // was abandoned cooperatively.
            Some(Ok(Err(Lapsed))) => ServeOutcome::Shed(core.refuse(
                &job.ctx,
                ShedReason::DeadlineExpired,
                Duration::ZERO,
                TraceStatus::DeadlineExceeded,
            )),
            Some(Err(_)) => {
                core.metrics.worker_panics.inc();
                core.metrics.count_shed(ShedReason::WorkerPanic);
                tracer.event(&job.ctx, "worker_panic", &[]);
                tracer.finish_trace(&job.ctx, TraceStatus::Error);
                ServeOutcome::Shed(Shed {
                    reason: ShedReason::WorkerPanic,
                    retry_after: retry_hint(core.queue.len(), core.config.workers, Duration::ZERO),
                })
            }
        };
        let _ = job.reply.send(outcome);
    }
}

/// Retrieval top-k in effect from [`BrownoutLevel::ReducedRetrieval`]
/// onward.
const BROWNOUT_TOP_K: usize = 8;

/// Bounded abandon-rejoin attempts before a follower gives up on
/// coalescing and computes solo.
const MAX_REJOINS: usize = 3;

/// The job's budget lapsed between serving stages.
struct Lapsed;

/// Where a served response came from.
#[derive(Clone, Copy, PartialEq)]
enum Source {
    AnswerCache,
    SemanticCache,
    Coalesced,
    Pipeline,
}

/// Span attributes of one exact-cache probe.
fn cache_attrs(cache: &str, hit: bool) -> Vec<(&'static str, String)> {
    let result = if hit { "hit" } else { "miss" };
    vec![("cache", cache.into()), ("result", result.into())]
}

/// One job a worker picked up, and what the worker learned on the way:
/// how long it queued and the brownout rung it is served at.
struct Pickup<'a> {
    core: &'a Core,
    job: &'a Job,
    queue_wait: Duration,
    picked_up: Instant,
    worker: usize,
    level: BrownoutLevel,
}

impl Pickup<'_> {
    fn serve(&self, copilot: &mut DioCopilot) -> Result<ServedAnswer, Lapsed> {
        let (core, job) = (self.core, self.job);
        let generation = core.generation.load(Ordering::Acquire);
        let tracer = core.obs.tracer();
        // The answer depends on both the question and the as-of timestamp.
        let answer_key = format!("{}\u{1f}{}", job.req.ts, job.key);
        let cached = tracer.time_learned(&job.ctx, "cache_lookup", |_| {
            let cached = core.answers.get(&answer_key, generation);
            let attrs = cache_attrs("answer", cached.is_some());
            (cached, attrs)
        });
        if let Some(response) = cached {
            return Ok(self.answered(response, Source::AnswerCache));
        }
        // Budget checkpoint between the cache and embed stages: a request
        // whose deadline lapsed during the lookup does no further work.
        if job.budget.expired() {
            return Err(Lapsed);
        }
        let qvec = tracer.time_learned(&job.ctx, "embed", |_| {
            let cached = core.embeds.get(&job.key, generation);
            let attrs = cache_attrs("embed", cached.is_some());
            let qvec = cached.unwrap_or_else(|| {
                let v = Arc::new(copilot.extractor().embed_question(&job.req.question));
                core.embeds
                    .insert(job.key.clone(), Arc::clone(&v), generation);
                v
            });
            (qvec, attrs)
        });
        // Budget checkpoint between the embed and pipeline stages.
        if job.budget.expired() {
            return Err(Lapsed);
        }
        let (response, source) = 'resp: {
            // The gateway plane serves full-fidelity answers only: under a
            // CacheOnly-or-worse brownout the request degrades below
            // instead, and neither the semantic cache nor the coalescer
            // should publish degraded results.
            if let Some(gw) = core
                .gateway
                .as_ref()
                .filter(|_| self.level < BrownoutLevel::CacheOnly)
            {
                // Semantic probe: serve a near-duplicate's answer when a
                // cached neighbor clears the similarity floor.
                if let Some(sem) = &gw.semantic {
                    let probe = tracer.time_learned(&job.ctx, "semantic_probe", |_| {
                        let probe = sem.probe(job.req.ts, generation, &qvec);
                        let similarity = match &probe {
                            Probe::Hit { similarity, .. } | Probe::Reject { similarity } => {
                                format!("{similarity:.4}")
                            }
                            Probe::Miss => String::new(),
                        };
                        let attrs =
                            vec![("result", probe.event().into()), ("similarity", similarity)];
                        (probe, attrs)
                    });
                    if let Probe::Hit { value, .. } = probe {
                        break 'resp (value, Source::SemanticCache);
                    }
                }
                if job.budget.expired() {
                    return Err(Lapsed);
                }
                if gw.coalesce {
                    // Singleflight: identical normalized questions at the
                    // same (generation, ts) share one pipeline run. The
                    // generation in the key means a knowledge bump opens a
                    // fresh epoch rather than sharing a stale answer.
                    let sf_key = format!("{}\u{1f}{}", generation, answer_key);
                    let mut rejoins = 0;
                    loop {
                        match gw.flights.join(&sf_key) {
                            Join::Leader(guard) => {
                                gw.role_leader.inc();
                                let response = self.run_pipeline(copilot, &qvec);
                                // Deadline-aborted answers are never
                                // shared: dropping the guard abandons the
                                // epoch and followers recompute with their
                                // own (possibly healthier) budgets.
                                if matches!(
                                    response.error,
                                    Some(CopilotError::DeadlineExceeded { .. })
                                ) {
                                    drop(guard);
                                } else {
                                    guard.publish(response.clone());
                                }
                                break 'resp (response, Source::Pipeline);
                            }
                            Join::Follower(h) => {
                                gw.role_follower.inc();
                                let out = tracer.time_learned(&job.ctx, "coalesce_wait", |_| {
                                    let out = h.wait(&job.budget);
                                    let outcome = match &out {
                                        FollowerOutcome::Ready(_) => "ready",
                                        FollowerOutcome::Abandoned => "abandoned",
                                        FollowerOutcome::TimedOut => "timeout",
                                    };
                                    (out, vec![("outcome", outcome.into())])
                                });
                                match out {
                                    FollowerOutcome::Ready(v) => {
                                        break 'resp (v, Source::Coalesced);
                                    }
                                    FollowerOutcome::Abandoned => {
                                        gw.role_abandoned.inc();
                                        rejoins += 1;
                                        if rejoins >= MAX_REJOINS {
                                            // Pathological abandon churn:
                                            // stop following, run solo.
                                            break;
                                        }
                                    }
                                    FollowerOutcome::TimedOut => {
                                        gw.role_timeout.inc();
                                        return Err(Lapsed);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            (self.run_pipeline(copilot, &qvec), Source::Pipeline)
        };
        // Browned-out and deadline-aborted responses stay out of the
        // answer cache: once pressure clears (or the client retries with
        // budget to spare) the question deserves a full-fidelity answer.
        // Coalesced and semantic hits skip insertion too — their leader or
        // neighbor already populated both caches under the same keys.
        let deadline_abort = matches!(response.error, Some(CopilotError::DeadlineExceeded { .. }));
        if self.level < BrownoutLevel::CacheOnly && !deadline_abort && source == Source::Pipeline {
            core.answers
                .insert(answer_key, response.clone(), generation);
            if let Some(sem) = core.gateway.as_ref().and_then(|gw| gw.semantic.as_ref()) {
                // Only healthy answers become semantic neighbors: serving
                // a paraphrase an *errored* answer would trade EX for
                // latency in exactly the wrong direction.
                if response.error.is_none() {
                    sem.insert(
                        job.req.ts,
                        generation,
                        &job.key,
                        Arc::clone(&qvec),
                        response.clone(),
                    );
                }
            }
        }
        Ok(self.answered(response, source))
    }

    /// Stamp a response with this job's serving telemetry and observe
    /// its submit-to-reply latency.
    fn answered(&self, response: CopilotResponse, source: Source) -> ServedAnswer {
        let service_time = self.picked_up.elapsed();
        let metrics = &self.core.metrics;
        let duration = if source == Source::AnswerCache {
            &metrics.duration_hit
        } else {
            &metrics.duration_miss
        };
        duration.observe((self.queue_wait + service_time).as_micros() as f64);
        ServedAnswer {
            response,
            answer_cache_hit: source == Source::AnswerCache,
            semantic_cache_hit: source == Source::SemanticCache,
            coalesced: source == Source::Coalesced,
            queue_wait: self.queue_wait,
            service_time,
            worker: self.worker,
        }
    }

    /// Run the pipeline at the fidelity the brownout rung allows: shrink
    /// retrieval, drop repair rounds, or skip the model entirely. The
    /// rung rides in the request and the worker's copilot is never
    /// written to, so however this ask ends — a panic included — the
    /// next one starts at full fidelity. Shared by the solo path and the
    /// singleflight leader path.
    fn run_pipeline(&self, copilot: &mut DioCopilot, qvec: &dio_embed::Vector) -> CopilotResponse {
        let (job, level) = (self.job, self.level);
        copilot.ask_with(AskRequest {
            question: &job.req.question,
            ts: job.req.ts,
            qvec: Some(qvec),
            parent: Some(job.ctx),
            budget: job.budget.clone(),
            top_k_cap: if level >= BrownoutLevel::ReducedRetrieval {
                BROWNOUT_TOP_K
            } else {
                usize::MAX
            },
            repair_round_cap: if level >= BrownoutLevel::NoRepair {
                0
            } else {
                usize::MAX
            },
            model: level < BrownoutLevel::CacheOnly,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_hint_grows_with_backlog_per_worker() {
        let empty = retry_hint(0, 8, Duration::ZERO);
        let half = retry_hint(32, 8, Duration::ZERO);
        let full = retry_hint(64, 8, Duration::ZERO);
        assert!(empty < half, "{empty:?} vs {half:?}");
        assert!(half < full, "{half:?} vs {full:?}");
        // Fewer workers drain slower: the same backlog advises a
        // longer wait.
        assert!(retry_hint(64, 1, Duration::ZERO) > full);
    }

    #[test]
    fn retry_hint_is_floored_and_capped() {
        // The tenant refill floors the hint…
        let refill = Duration::from_millis(900);
        assert_eq!(retry_hint(0, 8, refill), refill);
        // …and a pathological backlog cannot advise unbounded waits.
        assert_eq!(
            retry_hint(usize::MAX / 32, 1, Duration::ZERO),
            Duration::from_millis(5_000)
        );
    }
}
