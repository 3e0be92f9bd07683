//! The model front-end: a [`FoundationModel`] every worker calls
//! through, which sends each completion request upstream as its own
//! call by default and, when asked to, answers K concurrent requests
//! with **one** combined upstream call.
//!
//! ## One call per ask, none waiting on another
//!
//! [`BatchConfig::default`] has `max_batch: 1`, the paper's one model
//! call per question: every request flushes the moment it is queued
//! (**full**), nothing is held for a companion, and
//! [`compose_batch`]/[`split_batch`] never run. Upstream calls do not
//! queue behind one another either: the upstream is shared without a
//! lock (`FoundationModel: Sync`), and any caller whose flush trigger
//! fires takes its own batch off the queue and runs it on its own
//! thread while other flushes are in flight. Folding prompts bills a
//! shared prefix once, so a caller with `max_batch > 1` pays fewer
//! cents per answer — and a miss then waits for a companion before it
//! may leave.
//!
//! ## Flush triggers
//!
//! A queued request carries a *due* instant — the earliest of
//! `enqueue + max_delay` (bounded delay) and, when the request has a
//! `timeout_ms`, `deadline - min_slack` (deadline pressure). The queue
//! flushes when it reaches `max_batch` items (**full**), when the
//! oldest due instant passes (**due**), or when the passing due instant
//! was deadline-derived (**deadline**). A request whose hard deadline
//! has already lapsed while queued is *never* sent upstream: it fails
//! locally with a transient error so the serving tier's deadline abort
//! machinery — not a late answer — handles it.
//!
//! Callers that announce their work flush sooner. A caller opens a job
//! on its handle ([`GatewayHandle::open_job`]) for as long as it may
//! still reach the model, and parks it ([`OpenJob::parked`]) while it
//! waits on somebody else's answer. Once the queue holds one request
//! per open job nobody else can arrive, and it flushes at once
//! (**assembled**) instead of sitting out the delay bound; `max_delay`
//! then only caps the wait for a counted caller that has not arrived
//! yet. A gateway nobody opens a job on cannot know who may come and
//! keeps to the three timers above. At `max_batch: 1` a request fills
//! the queue the moment it arrives, so neither the timers nor the open
//! jobs ever hold it: they serve callers that ask for folding.
//!
//! ## Cost attribution
//!
//! The combined call is billed once; [`BatchLayout::attribute`] splits
//! the combined prompt bill into per-item shares (own suffix + an equal
//! slice of the shared prefix and framing), so each item's
//! [`Completion::usage`] reconciles with the single upstream bill and
//! the [`CostLedger`] records the prefix exactly once per batch.
//!
//! ## Fault domain
//!
//! The gateway sits *above* whatever fault injection wraps the
//! upstream (`FaultyModel<BatchExpander<SimulatedModel>>` in tests):
//! one injected fault corrupts one combined attempt. A whole-call
//! `Unavailable` fails every item transiently (each item's own
//! `RecoveryPolicy` retries through a fresh batch); a corrupted
//! combined *completion* degrades only the items whose answer blocks
//! were damaged, because [`split_batch`] recovers every block whose
//! markers survive.

use dio_llm::{
    compose_batch, count_tokens, Completion, CompletionRequest, CostLedger, FoundationModel,
    ModelError, Pricing, TokenUsage,
};
use dio_obs::{push_bounded, Buckets, Counter, Histogram, Registry, SpanContext, Tracer};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Batching policy. (Not serde-derived: the vendored serde stand-in
/// has no `Duration` impls; benches report the fields individually.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum items per combined call; 1 (the default) sends every
    /// request upstream on its own the moment it arrives.
    pub max_batch: usize,
    /// Maximum time a request may wait for companions. When callers
    /// open jobs this only caps the wait for one that has not arrived
    /// yet: the queue flushes as soon as nobody else can come.
    pub max_delay: Duration,
    /// Slack reserved before a request's hard deadline: a request is
    /// flushed no later than `deadline - min_slack` so the upstream
    /// call (and the caller's parse/repair work) fits before the
    /// deadline.
    pub min_slack: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 1,
            max_delay: Duration::from_millis(3),
            min_slack: Duration::from_millis(200),
        }
    }
}

/// Why a flush fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum FlushTrigger {
    /// The queue reached `max_batch`.
    Full,
    /// The oldest bounded-delay due instant passed.
    Due,
    /// A deadline-derived due instant passed.
    Deadline,
    /// Every open job has its request in the queue: nobody else can
    /// arrive, so there is nothing to wait for.
    Assembled,
}

impl FlushTrigger {
    /// Metric label.
    pub fn label(&self) -> &'static str {
        match self {
            FlushTrigger::Full => "full",
            FlushTrigger::Due => "due",
            FlushTrigger::Deadline => "deadline",
            FlushTrigger::Assembled => "assembled",
        }
    }
}

/// Audit record of one flush, retained (bounded) for tests and the
/// bench's deadline audit.
#[derive(Debug, Clone, serde::Serialize)]
pub struct FlushRecord {
    /// Items in the combined call.
    pub size: usize,
    /// What fired the flush.
    pub trigger: FlushTrigger,
    /// Longest queue wait among the flushed items, µs.
    pub waited_micros: u64,
    /// Whether every flushed item still had its hard deadline ahead of
    /// it when the flush started.
    pub within_deadline: bool,
    /// Items failed locally because their deadline lapsed in the queue
    /// (these were *not* sent upstream).
    pub lapsed: usize,
}

/// Retain the newest this many flush records.
const FLUSH_LOG_CAP: usize = 4096;

struct Slot {
    id: u64,
    request: CompletionRequest,
    ctx: Option<SpanContext>,
    enqueued: Instant,
    due: Instant,
    hard_deadline: Option<Instant>,
    deadline_driven: bool,
}

struct BatchState {
    next_id: u64,
    queue: Vec<Slot>,
    results: HashMap<u64, Result<Completion, ModelError>>,
    /// Jobs open on some handle and not parked: the callers that may
    /// still put a request in the queue. 0 when nobody announces.
    open_jobs: usize,
}

/// The shared gateway core. [`GatewayHandle`]s clone the `Arc`.
pub struct ModelGateway {
    upstream: Box<dyn FoundationModel>,
    config: BatchConfig,
    // Upstream identity snapshotted at construction (`FoundationModel`
    // hands out borrowed strs; the handle needs owned copies).
    name: String,
    window: usize,
    pricing: Pricing,
    state: Mutex<BatchState>,
    cv: Condvar,
    ledger: Mutex<CostLedger>,
    flush_log: Mutex<VecDeque<FlushRecord>>,
    tracer: Option<Tracer>,
    upstream_calls: Counter,
    flush_full: Counter,
    flush_due: Counter,
    flush_deadline: Counter,
    flush_assembled: Counter,
    lapsed_total: Counter,
    batch_size: Histogram,
    queue_wait: Histogram,
    prefix_saved: Counter,
}

impl std::fmt::Debug for ModelGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelGateway")
            .field("name", &self.name)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl ModelGateway {
    /// A gateway over `upstream`, instrumented into `registry`. Pass a
    /// tracer to get `batch_flush` spans and per-item `batched` events
    /// threaded under the callers' span contexts.
    pub fn new(
        upstream: Box<dyn FoundationModel>,
        config: BatchConfig,
        registry: &Registry,
        tracer: Option<Tracer>,
    ) -> Arc<Self> {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        let name = format!("gateway({})", upstream.name());
        let window = upstream.context_window();
        let pricing = upstream.pricing();
        Arc::new(ModelGateway {
            upstream,
            config,
            name,
            window,
            pricing,
            state: Mutex::new(BatchState {
                next_id: 0,
                queue: Vec::new(),
                results: HashMap::new(),
                open_jobs: 0,
            }),
            cv: Condvar::new(),
            ledger: Mutex::new(CostLedger::new()),
            flush_log: Mutex::new(VecDeque::new()),
            tracer,
            upstream_calls: registry.counter(
                "dio_gateway_upstream_calls_total",
                "Combined model calls the gateway sent upstream.",
            ),
            flush_full: registry.counter_with(
                "dio_gateway_batch_flush_total",
                "Batch flushes, by trigger.",
                &[("trigger", "full")],
            ),
            flush_due: registry.counter_with(
                "dio_gateway_batch_flush_total",
                "Batch flushes, by trigger.",
                &[("trigger", "due")],
            ),
            flush_deadline: registry.counter_with(
                "dio_gateway_batch_flush_total",
                "Batch flushes, by trigger.",
                &[("trigger", "deadline")],
            ),
            flush_assembled: registry.counter_with(
                "dio_gateway_batch_flush_total",
                "Batch flushes, by trigger.",
                &[("trigger", "assembled")],
            ),
            lapsed_total: registry.counter(
                "dio_gateway_queue_lapsed_total",
                "Requests failed locally because their deadline lapsed in the gateway queue.",
            ),
            batch_size: registry.histogram(
                "dio_gateway_batch_size",
                "Items per combined upstream call.",
                &Buckets::linear(1.0, 1.0, 8),
            ),
            queue_wait: registry.histogram(
                "dio_gateway_queue_wait_micros",
                "Time each request spent in the gateway queue before its flush started.",
                &Buckets::latency_micros(),
            ),
            prefix_saved: registry.counter(
                "dio_gateway_prefix_tokens_saved_total",
                "Shared-prefix tokens amortized away by batching.",
            ),
        })
    }

    /// The batching policy in force.
    pub fn config(&self) -> BatchConfig {
        self.config
    }

    /// Snapshot of the gateway's cost ledger.
    pub fn ledger(&self) -> CostLedger {
        self.ledger.lock().unwrap().clone()
    }

    /// Snapshot of the flush audit log: the newest 4 096 flushes,
    /// oldest first.
    pub fn flush_log(&self) -> Vec<FlushRecord> {
        self.flush_log.lock().unwrap().iter().cloned().collect()
    }

    fn log_flush(&self, record: FlushRecord) {
        push_bounded(&mut self.flush_log.lock().unwrap(), FLUSH_LOG_CAP, record);
    }

    /// A fresh per-caller handle. Each worker thread should hold its
    /// own so its open job's span context rides along without
    /// cross-talk.
    pub fn handle(self: &Arc<Self>) -> GatewayHandle {
        GatewayHandle {
            core: Arc::clone(self),
            ctx: Arc::new(Mutex::new(None)),
        }
    }

    /// Jobs currently open and not parked, across all handles.
    #[cfg(test)]
    pub(crate) fn open_jobs(&self) -> usize {
        self.state.lock().unwrap().open_jobs
    }

    /// The state lock, for the open-job count alone. The guards adjust
    /// it in `Drop`, possibly mid-unwind, so a poisoned lock is entered
    /// rather than propagated: a counter is valid whatever the thread
    /// that panicked was doing.
    fn lock_job_count(&self) -> MutexGuard<'_, BatchState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A job opened or un-parked: one more caller may reach the queue.
    /// Nobody is woken — this can only make a queued request wait.
    fn count_job(&self) {
        self.lock_job_count().open_jobs += 1;
    }

    /// A job closed or parked: whoever is queued may now be everyone
    /// who can come, so the waiters look again.
    fn uncount_job(&self) {
        self.lock_job_count().open_jobs -= 1;
        self.cv.notify_all();
    }

    /// Enqueue, wait for a flush (ours or a companion's), return this
    /// request's own result.
    fn complete_with(
        &self,
        request: &CompletionRequest,
        ctx: Option<SpanContext>,
    ) -> Result<Completion, ModelError> {
        let now = Instant::now();
        let delay_due = now + self.config.max_delay;
        let hard_deadline = request
            .timeout_ms
            .map(|ms| now + Duration::from_millis(ms));
        let deadline_due =
            hard_deadline.map(|hard| hard.checked_sub(self.config.min_slack).unwrap_or(now));
        let (due, deadline_driven) = match deadline_due {
            Some(d) if d < delay_due => (d, true),
            _ => (delay_due, false),
        };

        let mut state = self.state.lock().unwrap();
        let id = state.next_id;
        state.next_id += 1;
        state.queue.push(Slot {
            id,
            request: request.clone(),
            ctx,
            enqueued: now,
            due,
            hard_deadline,
            deadline_driven,
        });

        loop {
            if let Some(result) = state.results.remove(&id) {
                return result;
            }
            let now = Instant::now();
            let trigger = if state.queue.len() >= self.config.max_batch {
                Some(FlushTrigger::Full)
            } else if state.open_jobs > 0 && state.queue.len() >= state.open_jobs {
                Some(FlushTrigger::Assembled)
            } else {
                state
                    .queue
                    .iter()
                    .filter(|s| s.due <= now)
                    .max_by_key(|s| s.deadline_driven)
                    .map(|s| {
                        if s.deadline_driven {
                            FlushTrigger::Deadline
                        } else {
                            FlushTrigger::Due
                        }
                    })
            };
            // Whoever sees a trigger fire flushes, whatever else is in
            // flight; an empty queue fires none.
            if let Some(trigger) = trigger {
                let batch = take_batch(&mut state.queue, self.config.max_batch, self.window);
                drop(state);
                self.flush(batch, trigger);
                state = self.state.lock().unwrap();
                continue;
            }
            // Sleep until the earliest queued due instant (an empty
            // queue waits a slice for the flush that holds our request).
            let wait = state
                .queue
                .iter()
                .map(|s| s.due.saturating_duration_since(now))
                .min()
                .unwrap_or(Duration::from_millis(1))
                .clamp(Duration::from_micros(100), Duration::from_millis(50));
            let (guard, _) = self.cv.wait_timeout(state, wait).unwrap();
            state = guard;
        }
    }

    /// Execute one combined call for `batch` and publish per-item
    /// results. Runs with the state lock *released*: companions keep
    /// waiting on the condvar, and other callers run flushes of their
    /// own meanwhile.
    fn flush(&self, batch: Vec<Slot>, trigger: FlushTrigger) {
        let start = Instant::now();
        // Fail queue-lapsed items locally: a deadline already behind us
        // must produce a deadline abort at the caller, never a late
        // answer from upstream.
        let (lapsed, batch): (Vec<Slot>, Vec<Slot>) = batch
            .into_iter()
            .partition(|s| s.hard_deadline.is_some_and(|h| h <= start));
        let lapsed_count = lapsed.len();
        let mut results: Vec<(u64, Result<Completion, ModelError>)> = lapsed
            .into_iter()
            .map(|s| {
                (
                    s.id,
                    Err(ModelError::Unavailable(
                        "gateway queue deadline lapsed before flush".to_string(),
                    )),
                )
            })
            .collect();
        if lapsed_count > 0 {
            self.lapsed_total.add(lapsed_count as f64);
        }

        // Each item's time in the queue, in batch order.
        let waits: Vec<u64> = batch
            .iter()
            .map(|s| dio_obs::micros_u64(start.saturating_duration_since(s.enqueued)))
            .collect();
        let waited_micros = waits.iter().copied().max().unwrap_or(0);
        let size = batch.len();

        if !batch.is_empty() {
            self.flush_trigger_counter(trigger).inc();
            self.batch_size.observe(size as f64);
            for &waited in &waits {
                self.queue_wait.observe(waited as f64);
            }
            let outcome = self.call_upstream(&batch);
            let prefix_tokens = outcome.prefix_tokens;
            for (slot, result) in batch.iter().zip(outcome.results) {
                results.push((slot.id, result));
            }
            if prefix_tokens > 0 && size > 1 {
                self.prefix_saved
                    .add((prefix_tokens * (size - 1)) as f64);
            }
            // Trace plumbing: one batch_flush span under the first
            // item's context, a `batched` event under every item's.
            if let Some(tracer) = &self.tracer {
                let duration = dio_obs::micros_u64(start.elapsed());
                let size_attr = size.to_string();
                let prefix_attr = prefix_tokens.to_string();
                if let Some(first_ctx) = batch.iter().find_map(|s| s.ctx) {
                    let span = tracer.child_of(&first_ctx);
                    let start_micros = tracer.clock_micros(&span).saturating_sub(duration);
                    tracer.record_span(
                        &span,
                        "batch_flush",
                        start_micros,
                        duration,
                        &[
                            ("size", size_attr.as_str()),
                            ("trigger", trigger.label()),
                            ("prefix_tokens", prefix_attr.as_str()),
                        ],
                    );
                }
                for (slot, waited) in batch.iter().zip(&waits) {
                    if let Some(ctx) = &slot.ctx {
                        tracer.event(
                            ctx,
                            "batched",
                            &[
                                ("size", size_attr.as_str()),
                                ("trigger", trigger.label()),
                                ("waited_micros", waited.to_string().as_str()),
                            ],
                        );
                    }
                }
            }
        }

        self.log_flush(FlushRecord {
            size,
            trigger,
            waited_micros,
            within_deadline: lapsed_count == 0,
            lapsed: lapsed_count,
        });

        let mut state = self.state.lock().unwrap();
        state.results.extend(results);
        drop(state);
        self.cv.notify_all();
    }

    fn flush_trigger_counter(&self, trigger: FlushTrigger) -> &Counter {
        match trigger {
            FlushTrigger::Full => &self.flush_full,
            FlushTrigger::Due => &self.flush_due,
            FlushTrigger::Deadline => &self.flush_deadline,
            FlushTrigger::Assembled => &self.flush_assembled,
        }
    }

    /// One upstream call (combined when the batch has companions),
    /// billed into the ledger with per-item attribution.
    fn call_upstream(&self, batch: &[Slot]) -> UpstreamOutcome {
        let solo = || UpstreamOutcome {
            prefix_tokens: 0,
            results: batch.iter().map(|s| self.call_solo(&s.request)).collect(),
        };
        if batch.len() == 1 {
            return solo();
        }
        let requests: Vec<CompletionRequest> = batch.iter().map(|s| s.request.clone()).collect();
        let Ok((combined, layout)) = compose_batch(&requests) else {
            // Composition failed (malformed prompt sections): degrade
            // to serial per-item calls rather than failing the batch.
            return solo();
        };
        self.upstream_calls.inc();
        match self.upstream.complete(&combined) {
            Ok(c) => {
                self.ledger.lock().unwrap().record_batch(
                    c.usage,
                    layout.prefix_tokens,
                    batch.len(),
                    self.pricing,
                );
                let prompt_shares = layout.attribute(c.usage.prompt_tokens);
                let results = dio_llm::split_batch(&c.text, batch.len())
                    .into_iter()
                    .enumerate()
                    .map(|(i, item)| {
                        item.map(|text| {
                            let usage = TokenUsage {
                                prompt_tokens: prompt_shares[i],
                                completion_tokens: count_tokens(&text),
                            };
                            Completion { text, usage }
                        })
                    })
                    .collect();
                UpstreamOutcome {
                    prefix_tokens: layout.prefix_tokens,
                    results,
                }
            }
            Err(e) => UpstreamOutcome {
                prefix_tokens: layout.prefix_tokens,
                results: batch.iter().map(|_| Err(e.clone())).collect(),
            },
        }
    }

    /// One request sent upstream on its own, billed as one query.
    fn call_solo(&self, request: &CompletionRequest) -> Result<Completion, ModelError> {
        self.upstream_calls.inc();
        let result = self.upstream.complete(request);
        if let Ok(c) = &result {
            self.ledger.lock().unwrap().record(c.usage, self.pricing);
        }
        result
    }
}

struct UpstreamOutcome {
    prefix_tokens: usize,
    results: Vec<Result<Completion, ModelError>>,
}

/// Take a FIFO batch: up to `max_batch` items whose combined prompt
/// tokens (plus framing overhead) fit the upstream window. Always takes
/// at least one item.
fn take_batch(queue: &mut Vec<Slot>, max_batch: usize, window: usize) -> Vec<Slot> {
    const FRAMING_OVERHEAD: usize = 64;
    let mut tokens = FRAMING_OVERHEAD;
    let mut taken = 0;
    while taken < queue.len().min(max_batch) {
        let next_tokens = queue[taken].request.prompt.tokens;
        if taken > 0 && tokens + next_tokens > window {
            break;
        }
        tokens += next_tokens;
        taken += 1;
    }
    queue.drain(..taken).collect()
}

/// A per-caller [`FoundationModel`] facade over a shared
/// [`ModelGateway`]. The caller opens a job on it for each unit of work
/// that may reach the model ([`GatewayHandle::open_job`]); while the
/// job is open its span context rides on every call through the
/// handle, so flush spans and `batched` events land under the right
/// trace, and the gateway knows one more request may still arrive.
pub struct GatewayHandle {
    core: Arc<ModelGateway>,
    /// Span context of the job open on this handle; shared with the
    /// facades [`GatewayHandle::boxed`] hands out.
    ctx: Arc<Mutex<Option<SpanContext>>>,
}

impl std::fmt::Debug for GatewayHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayHandle")
            .field("name", &self.core.name)
            .finish_non_exhaustive()
    }
}

impl GatewayHandle {
    /// Announce a unit of work that may call the model through this
    /// handle, traced under `ctx`. Until the guard drops the gateway
    /// counts this caller among those a queued request waits for; a
    /// handle carries one job at a time.
    pub fn open_job(&self, ctx: Option<SpanContext>) -> OpenJob<'_> {
        *self.ctx.lock().unwrap() = ctx;
        self.core.count_job();
        OpenJob { handle: self }
    }

    /// This handle as a model a pipeline can own: calls through the
    /// box belong to whatever job is open on `self`.
    pub fn boxed(&self) -> Box<dyn FoundationModel> {
        Box::new(GatewayHandle {
            core: Arc::clone(&self.core),
            ctx: Arc::clone(&self.ctx),
        })
    }
}

impl Clone for GatewayHandle {
    /// Clones share the core but not the job: open jobs are per-worker
    /// state, not gateway state.
    fn clone(&self) -> Self {
        self.core.handle()
    }
}

/// One open job on a [`GatewayHandle`]. Dropping it — on any exit, a
/// panic unwinding through the caller included — closes the job, and a
/// request queued behind it flushes at once if nobody else can come.
#[must_use = "the job is open only while the guard lives"]
pub struct OpenJob<'a> {
    handle: &'a GatewayHandle,
}

impl<'a> OpenJob<'a> {
    /// The caller moves straight on to its next unit of work, traced
    /// under `ctx`: it never stops being counted, so a request queued
    /// behind it is not released into the gap between the two.
    pub fn continue_with(self, ctx: Option<SpanContext>) -> OpenJob<'a> {
        *self.handle.ctx.lock().unwrap() = ctx;
        self
    }

    /// Run `wait` with this job parked: the caller is blocked on
    /// somebody else's answer and cannot reach the model until `wait`
    /// returns (or unwinds), so the queue does not hold for it.
    pub fn parked<T>(&self, wait: impl FnOnce() -> T) -> T {
        struct Unpark<'a>(&'a ModelGateway);
        impl Drop for Unpark<'_> {
            fn drop(&mut self) {
                self.0.count_job();
            }
        }
        self.handle.core.uncount_job();
        let _unpark = Unpark(&self.handle.core);
        wait()
    }
}

impl Drop for OpenJob<'_> {
    fn drop(&mut self) {
        *self
            .handle
            .ctx
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = None;
        self.handle.core.uncount_job();
    }
}

impl FoundationModel for GatewayHandle {
    fn name(&self) -> &str {
        &self.core.name
    }

    fn context_window(&self) -> usize {
        self.core.window
    }

    fn pricing(&self) -> Pricing {
        self.core.pricing
    }

    fn complete(&self, request: &CompletionRequest) -> Result<Completion, ModelError> {
        let ctx = *self.ctx.lock().unwrap();
        self.core.complete_with(request, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_llm::{BatchExpander, ModelProfile, PromptBuilder, SimulatedModel, TaskKind};

    fn request(question: &str) -> CompletionRequest {
        let prompt = PromptBuilder::new()
            .system("You are a 5G SA operator data analytics copilot.")
            .question(question)
            .task(TaskKind::AnswerDirectly)
            .build(8192, 1000);
        CompletionRequest::paper_defaults(prompt)
    }

    fn gateway(config: BatchConfig) -> Arc<ModelGateway> {
        ModelGateway::new(
            Box::new(BatchExpander::new(SimulatedModel::new(
                ModelProfile::gpt4_sim(),
            ))),
            config,
            &Registry::new(),
            None,
        )
    }

    #[test]
    fn flush_log_keeps_the_newest_records() {
        let gw = gateway(BatchConfig::default());
        for size in 0..FLUSH_LOG_CAP + 10 {
            gw.log_flush(FlushRecord {
                size,
                trigger: FlushTrigger::Full,
                waited_micros: 0,
                within_deadline: true,
                lapsed: 0,
            });
        }
        let log = gw.flush_log();
        assert_eq!(log.len(), FLUSH_LOG_CAP);
        assert_eq!(log[0].size, 10);
        assert_eq!(log.last().unwrap().size, FLUSH_LOG_CAP + 9);
    }

    #[test]
    fn concurrent_requests_share_one_upstream_call() {
        let gw = gateway(BatchConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(50),
            min_slack: Duration::from_millis(200),
        });
        let solo = SimulatedModel::new(ModelProfile::gpt4_sim());
        let questions: Vec<String> =
            (0..4).map(|i| format!("how many registrations happened on slice {i}?")).collect();
        let expected: Vec<String> = questions
            .iter()
            .map(|q| solo.complete(&request(q)).unwrap().text)
            .collect();
        let mut handles = Vec::new();
        for q in &questions {
            let h = gw.handle();
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                h.complete(&request(&q)).unwrap().text
            }));
        }
        let got: Vec<String> = handles.into_iter().map(|t| t.join().unwrap()).collect();
        // Byte-identical answers to the unbatched path: EX parity.
        assert_eq!(got, expected);
        let ledger = gw.ledger();
        assert_eq!(ledger.queries(), 4);
        assert_eq!(ledger.batches(), 1);
        assert!(ledger.prefix_tokens_saved() > 0);
        let log = gw.flush_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].size, 4);
        assert_eq!(log[0].trigger, FlushTrigger::Full);
        assert!(log[0].within_deadline);
    }

    #[test]
    fn a_lone_request_flushes_on_the_delay_bound() {
        let gw = gateway(BatchConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(5),
            min_slack: Duration::from_millis(200),
        });
        let started = Instant::now();
        let c = gw
            .handle()
            .complete(&request("how many handovers failed?"))
            .unwrap();
        assert!(!c.text.is_empty());
        assert!(started.elapsed() >= Duration::from_millis(4));
        let log = gw.flush_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].size, 1);
        assert_eq!(log[0].trigger, FlushTrigger::Due);
    }

    #[test]
    fn a_tight_deadline_pulls_the_flush_forward() {
        let gw = gateway(BatchConfig {
            max_batch: 8,
            max_delay: Duration::from_secs(5),
            min_slack: Duration::from_millis(100),
        });
        let started = Instant::now();
        let req = request("how many PDU sessions dropped?").with_timeout_ms(120);
        gw.handle().complete(&req).unwrap();
        // Flushed around deadline - slack (~20ms), nowhere near the 5s
        // delay bound.
        assert!(started.elapsed() < Duration::from_secs(1));
        let log = gw.flush_log();
        assert_eq!(log[0].trigger, FlushTrigger::Deadline);
        assert!(log[0].within_deadline);
    }

    #[test]
    fn a_lapsed_deadline_fails_locally_without_an_upstream_call() {
        let registry = Registry::new();
        let gw = ModelGateway::new(
            Box::new(BatchExpander::new(SimulatedModel::new(
                ModelProfile::gpt4_sim(),
            ))),
            BatchConfig {
                max_batch: 8,
                max_delay: Duration::from_millis(30),
                min_slack: Duration::ZERO,
            },
            &registry,
            None,
        );
        // With zero slack, `due == hard deadline`: the flush can only
        // start *after* the deadline has lapsed, so the item must fail
        // locally and never reach upstream.
        let req = request("how many drops?").with_timeout_ms(1);
        let err = gw.handle().complete(&req).unwrap_err();
        assert!(err.is_transient(), "{err:?}");
        assert_eq!(registry.snapshot().total("dio_gateway_upstream_calls_total"), 0.0);
        assert_eq!(registry.snapshot().total("dio_gateway_queue_lapsed_total"), 1.0);
        let log = gw.flush_log();
        assert_eq!(log[0].lapsed, 1);
        assert!(!log[0].within_deadline);
    }

    #[test]
    fn per_item_attribution_reconciles_with_the_registry_bill() {
        let gw = gateway(BatchConfig {
            max_batch: 3,
            max_delay: Duration::from_millis(50),
            min_slack: Duration::from_millis(200),
        });
        let questions = [
            "how many registrations succeeded?",
            "what is the prb utilization?",
            "how many paging requests were seen?",
        ];
        let mut handles = Vec::new();
        for q in questions {
            let h = gw.handle();
            handles.push(std::thread::spawn(move || h.complete(&request(q)).unwrap()));
        }
        let completions: Vec<Completion> =
            handles.into_iter().map(|t| t.join().unwrap()).collect();
        let attributed: usize = completions.iter().map(|c| c.usage.prompt_tokens).sum();
        let ledger = gw.ledger();
        // The per-item prompt shares sum exactly to the combined bill.
        assert_eq!(attributed, ledger.usage().prompt_tokens);
        assert_eq!(ledger.batches(), 1);
    }

    /// Calls in flight upstream right now, and the most ever at once.
    #[derive(Default)]
    struct InFlight {
        counts: Mutex<(usize, usize)>,
        changed: Condvar,
    }

    /// An upstream whose every call waits (a second at most) for a
    /// second call to be in flight beside it.
    struct Rendezvous {
        inner: SimulatedModel,
        in_flight: Arc<InFlight>,
    }

    impl FoundationModel for Rendezvous {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn context_window(&self) -> usize {
            self.inner.context_window()
        }
        fn pricing(&self) -> Pricing {
            self.inner.pricing()
        }
        fn complete(&self, request: &CompletionRequest) -> Result<Completion, ModelError> {
            let InFlight { counts, changed } = &*self.in_flight;
            let mut c = counts.lock().unwrap();
            c.0 += 1;
            c.1 = c.1.max(c.0);
            changed.notify_all();
            let (mut c, _) = changed.wait_timeout_while(c, PROMPT, |c| c.1 < 2).unwrap();
            c.0 -= 1;
            drop(c);
            self.inner.complete(request)
        }
    }

    #[test]
    fn by_default_two_callers_calls_are_upstream_at_once() {
        let in_flight = Arc::new(InFlight::default());
        let gw = ModelGateway::new(
            Box::new(Rendezvous {
                inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
                in_flight: Arc::clone(&in_flight),
            }),
            BatchConfig::default(),
            &Registry::new(),
            None,
        );
        assert_eq!(gw.config().max_batch, 1);
        std::thread::scope(|scope| {
            for i in 0..2 {
                let handle = gw.handle();
                scope.spawn(move || {
                    handle
                        .complete(&request(&format!("how many drops on slice {i}?")))
                        .unwrap()
                });
            }
        });
        // Neither call waited on the other: no lock around the upstream,
        // no flush waiting for another to finish.
        assert_eq!(in_flight.counts.lock().unwrap().1, 2);
        let flushes: Vec<_> = gw.flush_log().iter().map(|f| (f.size, f.trigger)).collect();
        assert_eq!(flushes, [(1, FlushTrigger::Full); 2]);
        assert_eq!(gw.ledger().batches(), 0);
    }

    #[test]
    fn whole_call_unavailability_fails_every_item_transiently() {
        struct DownModel;
        impl FoundationModel for DownModel {
            fn name(&self) -> &str {
                "down"
            }
            fn context_window(&self) -> usize {
                8192
            }
            fn pricing(&self) -> Pricing {
                Pricing::gpt4()
            }
            fn complete(&self, _: &CompletionRequest) -> Result<Completion, ModelError> {
                Err(ModelError::Unavailable("outage".into()))
            }
        }
        let gw = ModelGateway::new(
            Box::new(DownModel),
            BatchConfig {
                max_batch: 2,
                max_delay: Duration::from_millis(50),
                min_slack: Duration::from_millis(200),
            },
            &Registry::new(),
            None,
        );
        let mut handles = Vec::new();
        for q in ["a?", "b?"] {
            let h = gw.handle();
            handles.push(std::thread::spawn(move || h.complete(&request(q))));
        }
        for t in handles {
            let err = t.join().unwrap().unwrap_err();
            assert!(err.is_transient());
        }
        // One combined attempt, zero successful queries billed.
        assert_eq!(gw.ledger().queries(), 0);
    }

    /// A delay bound no test should ever sit out.
    const NEVER: Duration = Duration::from_secs(5);
    /// "Promptly": far below [`NEVER`], far above any flush.
    const PROMPT: Duration = Duration::from_secs(1);

    fn patient(max_batch: usize) -> BatchConfig {
        BatchConfig {
            max_batch,
            max_delay: NEVER,
            min_slack: Duration::from_millis(200),
        }
    }

    #[test]
    fn a_lone_open_job_flushes_the_moment_it_arrives() {
        let gw = gateway(patient(8));
        let handle = gw.handle();
        let _job = handle.open_job(None);
        let started = Instant::now();
        handle
            .complete(&request("how many handovers failed?"))
            .unwrap();
        assert!(started.elapsed() < PROMPT, "{:?}", started.elapsed());
        let log = gw.flush_log();
        assert_eq!(log.len(), 1);
        assert_eq!((log[0].size, log[0].trigger), (1, FlushTrigger::Assembled));
    }

    /// `n` threads that each open a job, meet at a barrier (so every job
    /// is open before any request is queued), then run `work(i, ..)`.
    fn with_open_jobs(
        gw: &Arc<ModelGateway>,
        n: usize,
        work: impl Fn(usize, &GatewayHandle, OpenJob<'_>) + Sync,
    ) {
        let all_open = std::sync::Barrier::new(n);
        std::thread::scope(|scope| {
            for i in 0..n {
                let (all_open, work) = (&all_open, &work);
                scope.spawn(move || {
                    let handle = gw.handle();
                    let job = handle.open_job(None);
                    all_open.wait();
                    work(i, &handle, job);
                });
            }
        });
    }

    #[test]
    fn the_queue_holds_for_an_open_job_until_it_arrives_and_no_longer() {
        let gw = gateway(patient(8));
        let started = Instant::now();
        with_open_jobs(&gw, 2, |i, handle, _job| {
            if i == 1 {
                std::thread::sleep(Duration::from_millis(20));
            }
            handle
                .complete(&request(&format!("how many drops on slice {i}?")))
                .unwrap();
        });
        // One call for both, started by the late arrival — not two
        // calls of one, and not at the delay bound.
        assert!(started.elapsed() < PROMPT, "{:?}", started.elapsed());
        let log = gw.flush_log();
        assert_eq!(log.len(), 1);
        assert_eq!((log[0].size, log[0].trigger), (2, FlushTrigger::Assembled));
        assert_eq!(gw.ledger().batches(), 1);
    }

    #[test]
    fn a_job_that_closes_without_calling_releases_the_queued_request() {
        let gw = gateway(patient(8));
        let started = Instant::now();
        with_open_jobs(&gw, 2, |i, handle, job| {
            if i == 0 {
                handle.complete(&request("how many drops?")).unwrap();
            } else {
                // A cache hit, say: this job never needs the model.
                std::thread::sleep(Duration::from_millis(20));
                drop(job);
            }
        });
        assert!(started.elapsed() < PROMPT, "{:?}", started.elapsed());
        let log = gw.flush_log();
        assert_eq!(log.len(), 1);
        assert_eq!((log[0].size, log[0].trigger), (1, FlushTrigger::Assembled));
    }

    #[test]
    fn a_parked_job_does_not_hold_the_queue_and_counts_again_afterwards() {
        let gw = gateway(patient(8));
        let (leader, follower) = (gw.handle(), gw.handle());
        let _leading = leader.open_job(None);
        let following = follower.open_job(None);
        assert_eq!(gw.open_jobs(), 2);
        let started = Instant::now();
        following.parked(|| {
            assert_eq!(gw.open_jobs(), 1);
            // The follower waits on the leader's answer; the leader's
            // own request must not wait for the follower.
            leader.complete(&request("how many drops?")).unwrap();
        });
        assert!(started.elapsed() < PROMPT, "{:?}", started.elapsed());
        assert_eq!(gw.flush_log()[0].trigger, FlushTrigger::Assembled);
        // Un-parked, it is awaited again: the leader's next request
        // leaves only when the follower's joins it.
        assert_eq!(gw.open_jobs(), 2);
        std::thread::scope(|scope| {
            scope.spawn(|| leader.complete(&request("how many drops now?")).unwrap());
            std::thread::sleep(Duration::from_millis(20));
            follower.complete(&request("how many pages?")).unwrap();
        });
        assert!(started.elapsed() < PROMPT, "{:?}", started.elapsed());
        let log = gw.flush_log();
        assert_eq!(log.len(), 2);
        assert_eq!((log[1].size, log[1].trigger), (2, FlushTrigger::Assembled));
    }

    #[test]
    fn a_job_that_panics_closes_itself_and_stalls_nobody() {
        let gw = gateway(patient(8));
        let handle = gw.handle();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _job = handle.open_job(None);
            handle.complete(&request("how many drops?")).unwrap();
            panic!("the pipeline panicked after its model call");
        }));
        assert!(unwound.is_err());
        assert_eq!(gw.open_jobs(), 0);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let job = handle.open_job(None);
            job.parked(|| panic!("the follower wait panicked"));
        }));
        assert!(unwound.is_err());
        assert_eq!(gw.open_jobs(), 0);
        // A leaked count would make the next job wait out the delay
        // bound for a caller that no longer exists.
        let _job = handle.open_job(None);
        let started = Instant::now();
        handle.complete(&request("how many pages?")).unwrap();
        assert!(started.elapsed() < PROMPT, "{:?}", started.elapsed());
        assert_eq!(
            gw.flush_log().last().unwrap().trigger,
            FlushTrigger::Assembled
        );
    }

    #[test]
    fn open_jobs_beyond_the_batch_bound_still_flush_full() {
        let gw = gateway(patient(2));
        with_open_jobs(&gw, 4, |i, handle, _job| {
            handle
                .complete(&request(&format!("how many drops on slice {i}?")))
                .unwrap();
        });
        let flushes: Vec<_> = gw.flush_log().iter().map(|f| (f.size, f.trigger)).collect();
        assert_eq!(flushes, [(2, FlushTrigger::Full); 2]);
    }

    #[test]
    fn a_clones_open_job_never_carries_the_originals_context() {
        let gw = gateway(BatchConfig::default());
        let a = gw.handle();
        let ctx = Tracer::new().begin_trace("t");
        let job_a = a.open_job(Some(ctx));
        let b = a.clone();
        let _job_b = b.open_job(None);
        assert!(b.ctx.lock().unwrap().is_none());
        assert_eq!(*a.ctx.lock().unwrap(), Some(ctx));
        assert_eq!(gw.open_jobs(), 2);
        drop(job_a);
        assert!(a.ctx.lock().unwrap().is_none());
        assert_eq!(gw.open_jobs(), 1);
    }

    #[test]
    fn a_job_continued_into_the_next_unit_of_work_stays_counted() {
        let gw = gateway(BatchConfig::default());
        let handle = gw.handle();
        let tracer = Tracer::new();
        let (first, second) = (tracer.begin_trace("a"), tracer.begin_trace("b"));
        let job = handle.open_job(Some(first));
        let job = job.continue_with(Some(second));
        assert_eq!(gw.open_jobs(), 1);
        assert_eq!(*handle.ctx.lock().unwrap(), Some(second));
        drop(job);
        assert_eq!(gw.open_jobs(), 0);
        assert!(handle.ctx.lock().unwrap().is_none());
    }

    #[test]
    fn queue_time_lands_on_the_jobs_trace_and_in_the_registry() {
        let registry = Registry::new();
        let tracer = Tracer::new();
        let gw = ModelGateway::new(
            Box::new(BatchExpander::new(SimulatedModel::new(
                ModelProfile::gpt4_sim(),
            ))),
            BatchConfig {
                max_batch: 4,
                ..BatchConfig::default()
            },
            &registry,
            Some(tracer.clone()),
        );
        let handle = gw.handle();
        // The pipeline owns the boxed facade; the job is opened on the
        // handle the worker kept.
        let model = handle.boxed();
        let ctx = tracer.begin_trace("t");
        let job = handle.open_job(Some(ctx));
        model.complete(&request("how many drops?")).unwrap();
        drop(job);
        let trace = tracer.trace(ctx.trace_id).expect("trace recorded");
        let batched = trace
            .events
            .iter()
            .find(|e| e.name == "batched")
            .expect("the call is attributed to the open job's trace");
        let waited = batched
            .attrs
            .iter()
            .find(|(k, _)| k == "waited_micros")
            .expect("queue time on the batched event");
        assert_eq!(
            waited.1.parse::<u64>().ok(),
            Some(gw.flush_log()[0].waited_micros)
        );
        let snap = registry.snapshot();
        let family = snap
            .family("dio_gateway_queue_wait_micros")
            .expect("registered");
        let observed: u64 = family
            .series
            .iter()
            .map(|s| match &s.value {
                dio_obs::SeriesValue::Histogram(h) => h.count,
                _ => 0,
            })
            .sum();
        assert_eq!(observed, 1);
        let assembled = snap
            .family("dio_gateway_batch_flush_total")
            .and_then(|f| {
                f.series
                    .iter()
                    .find(|s| s.labels.iter().any(|(_, v)| v == "assembled"))
            })
            .expect("trigger=assembled series");
        assert_eq!(assembled.value, dio_obs::SeriesValue::Counter(1.0));
    }
}
