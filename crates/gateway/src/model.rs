//! The model front-end: one [`FoundationModel`] every worker calls
//! through, which sends each completion request upstream as its own
//! call — the paper's one model call per question (§4.2.5).
//!
//! ## None waiting on another
//!
//! The upstream is shared without a lock (`FoundationModel: Sync`), so
//! concurrent callers' calls run on it side by side: nothing queues a
//! request, holds it for a companion or serialises it behind another
//! caller's call. Every successful call is billed once into the
//! gateway's [`CostLedger`] and counted in
//! `dio_gateway_upstream_calls_total`; every request leaves one
//! [`FlushRecord`] in a bounded audit log.
//!
//! ## A lapsed deadline never goes upstream
//!
//! A request whose `timeout_ms` is already 0 has no time left for a
//! call: it fails locally with a transient error, counted in
//! `dio_gateway_queue_lapsed_total`, so the serving tier's deadline
//! abort machinery — not a late answer — handles it.
//!
//! ## Fault domain
//!
//! The gateway sits *above* whatever fault injection wraps the
//! upstream (`FaultyModel<BatchExpander<SimulatedModel>>` in tests):
//! one injected fault corrupts one call, and an upstream error reaches
//! its caller as it is, to be retried by that caller's own
//! `RecoveryPolicy`.

use dio_llm::{Completion, CompletionRequest, CostLedger, FoundationModel, ModelError, Pricing};
use dio_obs::{push_bounded, Counter, Registry};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Audit record of one request through the gateway, retained (bounded)
/// for tests and the benches.
#[derive(Debug, Clone, serde::Serialize)]
pub struct FlushRecord {
    /// Requests the upstream call carried: 1, or 0 when the request
    /// failed locally because its deadline had lapsed.
    pub size: usize,
}

/// Retain the newest this many flush records.
const FLUSH_LOG_CAP: usize = 4096;

/// The shared gateway core; [`ModelGateway::handle`] hands out the
/// per-worker models that call through it.
pub struct ModelGateway {
    upstream: Box<dyn FoundationModel>,
    /// `FoundationModel::name` lends a `&str`, so the handle's name is
    /// built once.
    name: String,
    ledger: Mutex<CostLedger>,
    flush_log: Mutex<VecDeque<FlushRecord>>,
    upstream_calls: Counter,
    lapsed_total: Counter,
}

impl ModelGateway {
    /// A gateway over `upstream`, instrumented into `registry`.
    pub fn new(upstream: Box<dyn FoundationModel>, registry: &Registry) -> Arc<Self> {
        Arc::new(ModelGateway {
            name: format!("gateway({})", upstream.name()),
            upstream,
            ledger: Mutex::new(CostLedger::new()),
            flush_log: Mutex::new(VecDeque::new()),
            upstream_calls: registry.counter(
                "dio_gateway_upstream_calls_total",
                "Model calls the gateway sent upstream.",
            ),
            lapsed_total: registry.counter(
                "dio_gateway_queue_lapsed_total",
                "Requests failed locally because their deadline lapsed before the upstream call.",
            ),
        })
    }

    /// Snapshot of the gateway's cost ledger.
    pub fn ledger(&self) -> CostLedger {
        self.ledger.lock().unwrap().clone()
    }

    /// Snapshot of the audit log: the newest 4 096 records, oldest
    /// first.
    pub fn flush_log(&self) -> Vec<FlushRecord> {
        self.flush_log.lock().unwrap().iter().cloned().collect()
    }

    fn log_flush(&self, size: usize) {
        push_bounded(
            &mut self.flush_log.lock().unwrap(),
            FLUSH_LOG_CAP,
            FlushRecord { size },
        );
    }

    /// A model that calls upstream through this gateway, for a
    /// pipeline to own.
    pub fn handle(self: &Arc<Self>) -> Box<dyn FoundationModel> {
        Box::new(GatewayHandle(Arc::clone(self)))
    }
}

/// What [`ModelGateway::handle`] hands out: the shared core behind the
/// [`FoundationModel`] interface.
struct GatewayHandle(Arc<ModelGateway>);

impl FoundationModel for GatewayHandle {
    fn name(&self) -> &str {
        &self.0.name
    }

    fn context_window(&self) -> usize {
        self.0.upstream.context_window()
    }

    fn pricing(&self) -> Pricing {
        self.0.upstream.pricing()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<Completion, ModelError> {
        let core = &self.0;
        if request.timeout_ms == Some(0) {
            core.lapsed_total.inc();
            core.log_flush(0);
            return Err(ModelError::Unavailable(
                "deadline lapsed before the gateway's upstream call".to_string(),
            ));
        }
        core.upstream_calls.inc();
        let result = core.upstream.complete(request);
        if let Ok(c) = &result {
            core.ledger.lock().unwrap().record(c.usage, self.pricing());
        }
        core.log_flush(1);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_llm::{ModelProfile, PromptBuilder, SimulatedModel, TaskKind};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Condvar;
    use std::time::Duration;

    fn request(question: &str) -> CompletionRequest {
        let prompt = PromptBuilder::new()
            .system("You are a 5G SA operator data analytics copilot.")
            .question(question)
            .task(TaskKind::AnswerDirectly)
            .build(8192, 1000);
        CompletionRequest::paper_defaults(prompt)
    }

    fn gateway(upstream: impl FoundationModel + 'static) -> Arc<ModelGateway> {
        ModelGateway::new(Box::new(upstream), &Registry::new())
    }

    #[test]
    fn flush_log_keeps_the_newest_records() {
        let gw = gateway(SimulatedModel::new(ModelProfile::gpt4_sim()));
        for size in 0..FLUSH_LOG_CAP + 10 {
            gw.log_flush(size);
        }
        let log = gw.flush_log();
        assert_eq!(log.len(), FLUSH_LOG_CAP);
        assert_eq!(log[0].size, 10);
        assert_eq!(log.last().unwrap().size, FLUSH_LOG_CAP + 9);
    }

    /// An upstream that counts the calls that reach it.
    struct Counting {
        inner: SimulatedModel,
        calls: Arc<AtomicUsize>,
    }

    impl FoundationModel for Counting {
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
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.inner.complete(request)
        }
    }

    #[test]
    fn a_lapsed_deadline_fails_locally_without_an_upstream_call() {
        let registry = Registry::new();
        let calls = Arc::new(AtomicUsize::new(0));
        let gw = ModelGateway::new(
            Box::new(Counting {
                inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
                calls: Arc::clone(&calls),
            }),
            &registry,
        );
        let req = request("how many drops?").with_timeout_ms(0);
        let err = gw.handle().complete(&req).unwrap_err();
        assert!(err.is_transient(), "{err:?}");
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert_eq!(
            registry
                .snapshot()
                .total("dio_gateway_upstream_calls_total"),
            0.0
        );
        assert_eq!(
            registry.snapshot().total("dio_gateway_queue_lapsed_total"),
            1.0
        );
        assert_eq!(gw.flush_log()[0].size, 0);
        // Without the lapse it goes upstream as usual.
        gw.handle().complete(&request("how many drops?")).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(
            registry
                .snapshot()
                .total("dio_gateway_upstream_calls_total"),
            1.0
        );
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
            let (mut c, _) = changed
                .wait_timeout_while(c, Duration::from_secs(1), |c| c.1 < 2)
                .unwrap();
            c.0 -= 1;
            drop(c);
            self.inner.complete(request)
        }
    }

    #[test]
    fn by_default_two_callers_calls_are_upstream_at_once() {
        let in_flight = Arc::new(InFlight::default());
        let gw = gateway(Rendezvous {
            inner: SimulatedModel::new(ModelProfile::gpt4_sim()),
            in_flight: Arc::clone(&in_flight),
        });
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
        // no call waiting for another to finish.
        assert_eq!(in_flight.counts.lock().unwrap().1, 2);
        let sizes: Vec<_> = gw.flush_log().iter().map(|f| f.size).collect();
        assert_eq!(sizes, [1; 2]);
        assert_eq!(gw.ledger().queries(), 2);
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
        let gw = gateway(DownModel);
        let mut handles = Vec::new();
        for q in ["a?", "b?"] {
            let h = gw.handle();
            handles.push(std::thread::spawn(move || h.complete(&request(q))));
        }
        for t in handles {
            let err = t.join().unwrap().unwrap_err();
            assert!(err.is_transient());
        }
        // Zero successful queries billed.
        assert_eq!(gw.ledger().queries(), 0);
    }
}
