//! Vetted, resource-limited execution of untrusted queries.

use crate::audit::{AuditLog, AuditOutcome};
use crate::policy::{PolicyViolation, SafetyPolicy};
use dio_faults::{DataFaultKind, Injector};
use dio_promql::{parse, Engine, EngineOptions, ParseError, QueryStats, Value};
use dio_tsdb::MetricStore;
use serde::{Deserialize, Serialize};

/// How much of the underlying data an execution actually saw. A
/// degraded tsdb (chaos-injected short reads, quarantined series) still
/// answers, but the answer is annotated so downstream consumers — and
/// the user — know it was computed over partial data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DataCompleteness {
    /// The store served every sample the query asked for.
    #[default]
    Complete,
    /// The store was degraded during this execution; the result may be
    /// computed over a subset of the data.
    Partial,
}

impl DataCompleteness {
    /// Stable label value for metrics and reports.
    pub fn slug(&self) -> &'static str {
        match self {
            DataCompleteness::Complete => "complete",
            DataCompleteness::Partial => "partial",
        }
    }
}

impl std::fmt::Display for DataCompleteness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

/// A successfully executed query.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionOutcome {
    /// The query result.
    pub value: Value,
    /// Execution statistics.
    pub stats: QueryStats,
    /// Canonical form of the vetted expression.
    pub canonical_query: String,
    /// Whether the store was healthy while the query ran.
    pub completeness: DataCompleteness,
}

/// Why an execution failed. Each variant keeps the structured diagnosis
/// (not a flattened string) so callers can build targeted repair
/// prompts.
#[derive(Debug, Clone, PartialEq)]
pub enum SandboxError {
    /// Syntax error, with the offending position preserved.
    Parse(ParseError),
    /// Policy refusal, with the violated rule preserved.
    Refused(PolicyViolation),
    /// Runtime failure (type errors, limits).
    Eval(String),
    /// The metric store failed transiently (an I/O fault, not a bad
    /// query). The same query is expected to succeed on retry.
    Storage(String),
}

impl SandboxError {
    /// A one-line instruction telling a model *what to change* in the
    /// failed query — the structured counterpart of [`Display`], phrased
    /// as guidance rather than diagnosis.
    pub fn repair_hint(&self, query: &str) -> String {
        match self {
            SandboxError::Parse(e) => {
                // Point at the offending span: a short window around the
                // error position (clamped to char boundaries).
                let mut start = e.position.min(query.len());
                while start > 0 && !query.is_char_boundary(start) {
                    start -= 1;
                }
                let mut end = (start + 12).min(query.len());
                while end < query.len() && !query.is_char_boundary(end) {
                    end += 1;
                }
                let span = &query[start..end];
                if span.is_empty() {
                    format!(
                        "the query is cut short at position {} ({}); complete the expression",
                        e.position, e.message
                    )
                } else {
                    format!(
                        "fix the syntax near '{span}' (position {}): {}",
                        e.position, e.message
                    )
                }
            }
            SandboxError::Refused(v) => match v {
                PolicyViolation::ForbiddenFunction(name) => {
                    format!("remove the call to '{name}'; that function is not allowed")
                }
                PolicyViolation::RangeTooWide { max_ms, .. } => format!(
                    "shrink the range selector to at most {}m",
                    max_ms / 60_000
                ),
                PolicyViolation::OffsetTooFar { max_ms, .. } => {
                    format!("reduce the offset to at most {}m", max_ms / 60_000)
                }
                PolicyViolation::SensitiveMetric(name) => {
                    format!("do not reference the metric '{name}'; it is access-restricted")
                }
                PolicyViolation::TooDeep { max, .. } => {
                    format!("simplify the expression to at most {max} nesting levels")
                }
            },
            SandboxError::Eval(m) => format!("rewrite the query to avoid: {m}"),
            SandboxError::Storage(m) => format!(
                "the data store failed transiently ({m}); retry the same query unchanged"
            ),
        }
    }

    /// True when the failure is a transient storage fault: the query is
    /// fine, the medium hiccuped, and a retry (not a repair) is the
    /// right recovery.
    pub fn is_storage_fault(&self) -> bool {
        matches!(self, SandboxError::Storage(_))
    }
}

impl std::fmt::Display for SandboxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SandboxError::Parse(e) => write!(f, "parse error: {e}"),
            SandboxError::Refused(v) => write!(f, "policy refusal: {v}"),
            SandboxError::Eval(m) => write!(f, "evaluation error: {m}"),
            SandboxError::Storage(m) => write!(f, "storage fault: {m}"),
        }
    }
}

impl std::error::Error for SandboxError {}

/// Resolves the metric families a vetted query references to the store
/// it should evaluate against.
///
/// This is the seam a sharded data plane plugs into: a cluster router
/// implements it by mapping families to owning shards (sharing one
/// shard's store for a single-owner query, merging across shards
/// otherwise). `dynamic` is true when the query contains a selector
/// whose metric name is not a literal (a name-pattern selector), in
/// which case the returned store must cover the full keyspace, not
/// just `families`.
///
/// An `Err` is a *transient* storage fault — the keyspace is briefly
/// unavailable (e.g. a shard mid-failover) and the same call is
/// expected to succeed on retry. It surfaces as
/// [`SandboxError::Storage`], riding the copilot's existing
/// storage-retry and degraded-fallback machinery.
pub trait StoreResolver: Send + Sync + std::fmt::Debug {
    /// Resolve a store covering at least `families` (the whole keyspace
    /// when `dynamic`).
    fn resolve(
        &self,
        families: &[String],
        dynamic: bool,
    ) -> Result<std::sync::Arc<MetricStore>, String>;

    /// [`StoreResolver::resolve`] carrying the caller's trace context.
    /// A distributed resolver records one child span per shard it
    /// touches (tagged with the routing path) under `parent`; the
    /// default implementation just delegates, so single-store resolvers
    /// need not care about tracing.
    fn resolve_traced(
        &self,
        families: &[String],
        dynamic: bool,
        trace: Option<(&dio_obs::Tracer, &dio_obs::SpanContext)>,
    ) -> Result<std::sync::Arc<MetricStore>, String> {
        let _ = trace;
        self.resolve(families, dynamic)
    }
}

/// Instrument name/help for per-outcome execution counts.
const EXECUTIONS_NAME: &str = "dio_sandbox_executions_total";
const EXECUTIONS_HELP: &str = "Untrusted queries the sandbox vetted and executed, by outcome.";

/// Instrument name/help for injected data-plane fault counts.
const DATA_FAULTS_NAME: &str = "dio_sandbox_data_faults_total";
const DATA_FAULTS_HELP: &str =
    "Data-plane faults the chaos layer injected into sandbox executions, by kind.";

/// The sandbox: engine + policy + audit log.
#[derive(Debug)]
pub struct Sandbox {
    engine: Engine,
    policy: SafetyPolicy,
    audit: AuditLog,
    registry: Option<dio_obs::Registry>,
    chaos: Option<Injector>,
    resolver: Option<std::sync::Arc<dyn StoreResolver>>,
}

impl Sandbox {
    /// Build a sandbox over a store with a policy. The policy's sample
    /// budget is installed into the engine.
    pub fn new(store: MetricStore, policy: SafetyPolicy) -> Self {
        Sandbox::new_shared(std::sync::Arc::new(store), policy)
    }

    /// Build a sandbox over an already-shared store: the serving path,
    /// where N worker sandboxes read one resident tsdb concurrently.
    /// Audit log, registry handle, and chaos schedule stay per-sandbox.
    pub fn new_shared(store: std::sync::Arc<MetricStore>, policy: SafetyPolicy) -> Self {
        let engine = Engine::with_options_shared(
            store,
            EngineOptions {
                max_samples: policy.max_samples,
                ..EngineOptions::default()
            },
        );
        Sandbox {
            engine,
            policy,
            audit: AuditLog::new(),
            registry: None,
            chaos: None,
            resolver: None,
        }
    }

    /// Route every execution's store lookup through `resolver` instead
    /// of the resident engine store. The resident store stays in place
    /// for [`Sandbox::store_arc`] / [`Sandbox::engine`] callers; only
    /// query evaluation is redirected.
    pub fn attach_store_resolver(&mut self, resolver: std::sync::Arc<dyn StoreResolver>) {
        self.resolver = Some(resolver);
    }

    /// The attached store resolver, if any (cheap handle clone).
    pub fn store_resolver(&self) -> Option<std::sync::Arc<dyn StoreResolver>> {
        self.resolver.clone()
    }

    /// The shared handle to the underlying store (cheap clone).
    pub fn store_arc(&self) -> std::sync::Arc<MetricStore> {
        self.engine.store_arc()
    }

    /// Subject every execution to a data-plane fault schedule (the
    /// chaos harness for the tsdb the engine reads). Transient I/O
    /// faults become [`SandboxError::Storage`]; read corruption
    /// degrades the outcome to [`DataCompleteness::Partial`] instead of
    /// failing; latency spikes are recorded, never slept.
    pub fn attach_data_chaos(&mut self, injector: Injector) {
        if let Some(registry) = &self.registry {
            registry.counter_with(DATA_FAULTS_NAME, DATA_FAULTS_HELP, &[("kind", "transient_io")]);
        }
        self.chaos = Some(injector);
    }

    /// The attached fault schedule, if any.
    pub fn data_chaos(&self) -> Option<&Injector> {
        self.chaos.as_ref()
    }

    /// Count executions into `registry` as
    /// `dio_sandbox_executions_total{outcome}`. The `executed` series is
    /// registered at zero immediately so the family exports before the
    /// first query.
    pub fn attach_obs(&mut self, registry: dio_obs::Registry) {
        registry.counter_with(EXECUTIONS_NAME, EXECUTIONS_HELP, &[("outcome", "executed")]);
        self.registry = Some(registry);
    }

    fn count_outcome(&self, outcome: &'static str) {
        if let Some(registry) = &self.registry {
            registry
                .counter_with(EXECUTIONS_NAME, EXECUTIONS_HELP, &[("outcome", outcome)])
                .inc();
        }
    }

    /// The wrapped engine (read-only).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The audit log.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// The active policy.
    pub fn policy(&self) -> &SafetyPolicy {
        &self.policy
    }

    /// Vet and execute one untrusted query at `ts`.
    pub fn execute(&mut self, query: &str, ts: i64) -> Result<ExecutionOutcome, SandboxError> {
        self.execute_traced(query, ts, None)
    }

    /// [`Sandbox::execute`] carrying the caller's trace context, which
    /// rides into the store resolver so a sharded data plane can record
    /// per-shard child spans under the caller's execute span.
    pub fn execute_traced(
        &mut self,
        query: &str,
        ts: i64,
        trace: Option<(&dio_obs::Tracer, &dio_obs::SpanContext)>,
    ) -> Result<ExecutionOutcome, SandboxError> {
        let expr = match parse(query) {
            Ok(e) => e,
            Err(e) => {
                self.audit.record(
                    query,
                    ts,
                    AuditOutcome::ParseFailed {
                        reason: e.to_string(),
                    },
                );
                self.count_outcome("parse_failed");
                return Err(SandboxError::Parse(e));
            }
        };
        if let Err(v) = self.policy.vet(&expr) {
            self.audit.record(
                query,
                ts,
                AuditOutcome::Refused {
                    reason: v.to_string(),
                },
            );
            self.count_outcome("refused");
            return Err(SandboxError::Refused(v));
        }
        // The chaos schedule models the store read underneath the
        // engine: decide once per vetted execution.
        let mut completeness = DataCompleteness::Complete;
        if let Some(injector) = &mut self.chaos {
            let op = injector.ops();
            if let Some(fault) = injector.decide() {
                if let Some(registry) = &self.registry {
                    registry
                        .counter_with(
                            DATA_FAULTS_NAME,
                            DATA_FAULTS_HELP,
                            &[("kind", fault.kind.slug())],
                        )
                        .inc();
                }
                match fault.kind {
                    DataFaultKind::TransientIo => {
                        let reason = format!("injected transient store fault on op {op}");
                        self.audit.record(
                            query,
                            ts,
                            AuditOutcome::EvalFailed {
                                reason: reason.clone(),
                            },
                        );
                        self.count_outcome("storage_fault");
                        return Err(SandboxError::Storage(reason));
                    }
                    DataFaultKind::TruncatedRead | DataFaultKind::BitFlip => {
                        // The engine still answers, but over damaged
                        // reads: annotate instead of aborting.
                        completeness = DataCompleteness::Partial;
                    }
                    DataFaultKind::LatencySpike => injector.note_latency_spike(),
                }
            }
        }
        let evaluated = match &self.resolver {
            Some(resolver) => {
                let families = expr.metric_names();
                match resolver.resolve_traced(&families, expr.has_dynamic_selector(), trace) {
                    Ok(store) => {
                        // Evaluate on an ephemeral engine over the
                        // resolved store; policy limits still apply.
                        let engine = Engine::with_options_shared(
                            store,
                            EngineOptions {
                                max_samples: self.policy.max_samples,
                                ..EngineOptions::default()
                            },
                        );
                        engine.instant_query_expr(&expr, ts)
                    }
                    Err(reason) => {
                        let reason = format!("store resolution failed: {reason}");
                        self.audit.record(
                            query,
                            ts,
                            AuditOutcome::EvalFailed {
                                reason: reason.clone(),
                            },
                        );
                        self.count_outcome("storage_fault");
                        return Err(SandboxError::Storage(reason));
                    }
                }
            }
            None => self.engine.instant_query_expr(&expr, ts),
        };
        match evaluated {
            Ok((value, stats)) => {
                self.audit.record(query, ts, AuditOutcome::Executed);
                self.count_outcome("executed");
                Ok(ExecutionOutcome {
                    value,
                    stats,
                    canonical_query: dio_promql::format_expr(&expr),
                    completeness,
                })
            }
            Err(e) => {
                self.audit.record(
                    query,
                    ts,
                    AuditOutcome::EvalFailed {
                        reason: e.to_string(),
                    },
                );
                self.count_outcome("eval_failed");
                Err(SandboxError::Eval(e.to_string()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_tsdb::{Labels, Sample};

    fn store() -> MetricStore {
        let mut st = MetricStore::new();
        let l = Labels::name_only("reqs_total");
        for k in 0..=10i64 {
            st.append(l.clone(), Sample::new(k * 60_000, (k * 60) as f64))
                .unwrap();
        }
        st
    }

    #[test]
    fn executes_safe_query() {
        let mut sb = Sandbox::new(store(), SafetyPolicy::default());
        let out = sb.execute("sum(rate(reqs_total[5m]))", 600_000).unwrap();
        assert_eq!(out.value.as_scalar_like(), Some(1.0));
        assert!(out.stats.samples_visited > 0);
        assert_eq!(sb.audit().executed_count(), 1);
    }

    #[test]
    fn refuses_and_audits_policy_violation() {
        let mut sb = Sandbox::new(store(), SafetyPolicy::default());
        let err = sb.execute("rate(reqs_total[7d])", 600_000).unwrap_err();
        assert!(matches!(err, SandboxError::Refused(_)));
        assert_eq!(sb.audit().refused_count(), 1);
        assert_eq!(sb.audit().executed_count(), 0);
    }

    #[test]
    fn parse_errors_are_audited() {
        let mut sb = Sandbox::new(store(), SafetyPolicy::default());
        let err = sb.execute("sum((", 0).unwrap_err();
        assert!(matches!(err, SandboxError::Parse(_)));
        assert!(matches!(
            sb.audit().entries()[0].outcome,
            AuditOutcome::ParseFailed { .. }
        ));
    }

    #[test]
    fn sample_budget_is_enforced() {
        let policy = SafetyPolicy {
            max_samples: 3,
            ..SafetyPolicy::default()
        };
        let mut sb = Sandbox::new(store(), policy);
        let err = sb.execute("sum(rate(reqs_total[10m]))", 600_000).unwrap_err();
        assert!(matches!(err, SandboxError::Eval(_)));
        assert!(matches!(
            sb.audit().entries()[0].outcome,
            AuditOutcome::EvalFailed { .. }
        ));
    }

    #[test]
    fn outcome_counters_track_audit_log() {
        let registry = dio_obs::Registry::new();
        let mut sb = Sandbox::new(store(), SafetyPolicy::default());
        sb.attach_obs(registry.clone());
        sb.execute("sum(reqs_total)", 600_000).unwrap();
        sb.execute("sum((", 0).unwrap_err(); // parse
        sb.execute("rate(reqs_total[7d])", 600_000).unwrap_err(); // refused
        let snap = registry.snapshot();
        let fam = snap.family("dio_sandbox_executions_total").unwrap();
        let count_for = |outcome: &str| {
            fam.series
                .iter()
                .find(|s| s.labels.contains(&("outcome".into(), outcome.into())))
                .map(|s| match &s.value {
                    dio_obs::SeriesValue::Counter(v) => *v,
                    _ => panic!("not a counter"),
                })
                .unwrap_or(0.0)
        };
        assert_eq!(count_for("executed"), 1.0);
        assert_eq!(count_for("parse_failed"), 1.0);
        assert_eq!(count_for("refused"), 1.0);
        assert_eq!(count_for("eval_failed"), 0.0);
    }

    #[test]
    fn canonical_query_is_reported() {
        let mut sb = Sandbox::new(store(), SafetyPolicy::default());
        let out = sb.execute("sum( reqs_total )", 600_000).unwrap();
        assert_eq!(out.canonical_query, "sum(reqs_total)");
    }

    #[test]
    fn parse_errors_carry_position_and_span_hint() {
        let mut sb = Sandbox::new(store(), SafetyPolicy::default());
        let q = "sum(reqs_total) )(";
        let err = sb.execute(q, 0).unwrap_err();
        let SandboxError::Parse(e) = &err else {
            panic!("not a parse error: {err}")
        };
        let pos = e.position;
        assert!(pos <= q.len());
        let hint = err.repair_hint(q);
        assert!(
            hint.contains("syntax") || hint.contains("cut short"),
            "unhelpful hint: {hint}"
        );
        assert!(hint.contains(&pos.to_string()), "hint lacks position: {hint}");
    }

    #[test]
    fn refusal_hints_name_the_violated_rule() {
        let mut sb = Sandbox::new(store(), SafetyPolicy::default());
        let q = "rate(reqs_total[7d])";
        let err = sb.execute(q, 600_000).unwrap_err();
        assert!(matches!(
            err,
            SandboxError::Refused(PolicyViolation::RangeTooWide { .. })
        ));
        let hint = err.repair_hint(q);
        assert!(hint.contains("shrink the range"), "hint: {hint}");
    }

    #[test]
    fn eval_hints_quote_the_failure() {
        let err = SandboxError::Eval("sample budget exceeded".into());
        assert!(err.repair_hint("sum(x)").contains("sample budget exceeded"));
    }

    use dio_faults::{ChaosConfig, Injector};

    fn chaos_only(kind_index: usize, seed: u64) -> Injector {
        let mut weights = [0u32; 4];
        weights[kind_index] = 1;
        Injector::new(ChaosConfig {
            seed,
            fault_probability: 1.0,
            weights,
            latency_spike_micros: 100,
        })
    }

    #[test]
    fn transient_store_fault_is_a_retryable_storage_error() {
        let mut sb = Sandbox::new(store(), SafetyPolicy::default());
        sb.attach_data_chaos(chaos_only(1, 7)); // TransientIo only
        let err = sb.execute("sum(reqs_total)", 600_000).unwrap_err();
        assert!(err.is_storage_fault());
        assert!(err.repair_hint("sum(reqs_total)").contains("retry"));
        assert!(matches!(
            sb.audit().entries()[0].outcome,
            AuditOutcome::EvalFailed { .. }
        ));
    }

    #[test]
    fn read_corruption_degrades_completeness_instead_of_failing() {
        let mut sb = Sandbox::new(store(), SafetyPolicy::default());
        sb.attach_data_chaos(chaos_only(3, 8)); // BitFlip only
        let out = sb.execute("sum(reqs_total)", 600_000).unwrap();
        assert_eq!(out.completeness, DataCompleteness::Partial);
        // The value is still the engine's answer; only the annotation
        // changed.
        assert_eq!(out.value.as_scalar_like(), Some(600.0));
    }

    #[test]
    fn latency_spike_records_and_stays_complete() {
        let mut sb = Sandbox::new(store(), SafetyPolicy::default());
        sb.attach_data_chaos(chaos_only(0, 9)); // LatencySpike only
        let out = sb.execute("sum(reqs_total)", 600_000).unwrap();
        assert_eq!(out.completeness, DataCompleteness::Complete);
        assert_eq!(sb.data_chaos().unwrap().injected_latency_micros(), 100);
    }

    #[test]
    fn healthy_executions_are_complete_without_chaos() {
        let mut sb = Sandbox::new(store(), SafetyPolicy::default());
        let out = sb.execute("sum(reqs_total)", 600_000).unwrap();
        assert_eq!(out.completeness, DataCompleteness::Complete);
    }

    #[test]
    fn data_faults_are_counted_by_kind() {
        let registry = dio_obs::Registry::new();
        let mut sb = Sandbox::new(store(), SafetyPolicy::default());
        sb.attach_obs(registry.clone());
        sb.attach_data_chaos(chaos_only(1, 10)); // TransientIo only
        let _ = sb.execute("sum(reqs_total)", 600_000);
        let snap = registry.snapshot();
        assert_eq!(snap.total("dio_sandbox_data_faults_total"), 1.0);
        let fam = snap.family("dio_sandbox_data_faults_total").unwrap();
        assert!(fam
            .series
            .iter()
            .any(|s| s.labels.contains(&("kind".into(), "transient_io".into()))));
    }
}
