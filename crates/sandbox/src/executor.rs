//! Vetted, resource-limited execution of untrusted queries.

use crate::policy::{PolicyViolation, SafetyPolicy};
use dio_promql::{parse, Engine, EngineOptions, ParseError, QueryStats, Value};
use dio_tsdb::MetricStore;

/// A successfully executed query.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionOutcome {
    /// The query result.
    pub value: Value,
    /// Execution statistics.
    pub stats: QueryStats,
    /// Canonical form of the vetted expression.
    pub canonical_query: String,
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
                PolicyViolation::RangeTooWide { max_ms, .. } => {
                    format!("shrink the range selector to at most {}m", max_ms / 60_000)
                }
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
            SandboxError::Storage(m) => {
                format!("the data store failed transiently ({m}); retry the same query unchanged")
            }
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

/// The sandbox: engine + policy, counting every outcome. Clones share
/// the store, the registry and the resolver by handle.
#[derive(Debug, Clone)]
pub struct Sandbox {
    engine: Engine,
    policy: SafetyPolicy,
    registry: Option<dio_obs::Registry>,
    resolver: Option<std::sync::Arc<dyn StoreResolver>>,
}

impl Sandbox {
    /// Build a sandbox over a store with a policy. The policy's sample
    /// budget is installed into the engine. Passing `world.store.clone()`
    /// copies no telemetry: store clones share their series until one
    /// side writes.
    pub fn new(store: MetricStore, policy: SafetyPolicy) -> Self {
        let engine = Engine::with_options(
            store,
            EngineOptions {
                max_samples: policy.max_samples,
                ..EngineOptions::default()
            },
        );
        Sandbox {
            engine,
            policy,
            registry: None,
            resolver: None,
        }
    }

    /// Route every execution's store lookup through `resolver` instead
    /// of the resident engine store. The resident store stays in place
    /// for [`Sandbox::engine`] callers; only query evaluation is
    /// redirected.
    pub fn attach_store_resolver(&mut self, resolver: std::sync::Arc<dyn StoreResolver>) {
        self.resolver = Some(resolver);
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

    /// Vet and execute one untrusted query at `ts`.
    pub fn execute(&self, query: &str, ts: i64) -> Result<ExecutionOutcome, SandboxError> {
        self.execute_traced(query, ts, None)
    }

    /// [`Sandbox::execute`] carrying the caller's trace context, which
    /// rides into the store resolver so a sharded data plane can record
    /// per-shard child spans under the caller's execute span.
    pub fn execute_traced(
        &self,
        query: &str,
        ts: i64,
        trace: Option<(&dio_obs::Tracer, &dio_obs::SpanContext)>,
    ) -> Result<ExecutionOutcome, SandboxError> {
        let expr = match parse(query) {
            Ok(e) => e,
            Err(e) => {
                self.count_outcome("parse_failed");
                return Err(SandboxError::Parse(e));
            }
        };
        if let Err(v) = self.policy.vet(&expr) {
            self.count_outcome("refused");
            return Err(SandboxError::Refused(v));
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
                        self.count_outcome("storage_fault");
                        return Err(SandboxError::Storage(reason));
                    }
                }
            }
            None => self.engine.instant_query_expr(&expr, ts),
        };
        match evaluated {
            Ok((value, stats)) => {
                self.count_outcome("executed");
                Ok(ExecutionOutcome {
                    value,
                    stats,
                    canonical_query: dio_promql::format_expr(&expr),
                })
            }
            Err(e) => {
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

    /// `sb`, counting its executions into a fresh registry.
    fn counted(mut sb: Sandbox) -> (Sandbox, dio_obs::Registry) {
        let registry = dio_obs::Registry::new();
        sb.attach_obs(registry.clone());
        (sb, registry)
    }

    /// `dio_sandbox_executions_total{outcome}` in `registry`.
    fn executions(registry: &dio_obs::Registry, outcome: &str) -> f64 {
        let snap = registry.snapshot();
        let fam = snap.family(EXECUTIONS_NAME).unwrap();
        fam.series
            .iter()
            .find(|s| s.labels.contains(&("outcome".into(), outcome.into())))
            .map(|s| match &s.value {
                dio_obs::SeriesValue::Counter(v) => *v,
                _ => panic!("not a counter"),
            })
            .unwrap_or(0.0)
    }

    #[test]
    fn executes_safe_query() {
        let (sb, registry) = counted(Sandbox::new(store(), SafetyPolicy::default()));
        let out = sb.execute("sum(rate(reqs_total[5m]))", 600_000).unwrap();
        assert_eq!(out.value.as_scalar_like(), Some(1.0));
        assert!(out.stats.samples_visited > 0);
        assert_eq!(executions(&registry, "executed"), 1.0);
    }

    #[test]
    fn refuses_and_audits_policy_violation() {
        let (sb, registry) = counted(Sandbox::new(store(), SafetyPolicy::default()));
        let err = sb.execute("rate(reqs_total[7d])", 600_000).unwrap_err();
        assert!(matches!(err, SandboxError::Refused(_)));
        assert_eq!(executions(&registry, "refused"), 1.0);
        assert_eq!(executions(&registry, "executed"), 0.0);
    }

    #[test]
    fn parse_errors_are_audited() {
        let (sb, registry) = counted(Sandbox::new(store(), SafetyPolicy::default()));
        let err = sb.execute("sum((", 0).unwrap_err();
        assert!(matches!(err, SandboxError::Parse(_)));
        assert_eq!(executions(&registry, "parse_failed"), 1.0);
    }

    #[test]
    fn sample_budget_is_enforced() {
        let policy = SafetyPolicy {
            max_samples: 3,
            ..SafetyPolicy::default()
        };
        let (sb, registry) = counted(Sandbox::new(store(), policy));
        let err = sb
            .execute("sum(rate(reqs_total[10m]))", 600_000)
            .unwrap_err();
        assert!(matches!(err, SandboxError::Eval(_)));
        assert_eq!(executions(&registry, "eval_failed"), 1.0);
    }

    #[test]
    fn outcome_counters_track_audit_log() {
        let (sb, registry) = counted(Sandbox::new(store(), SafetyPolicy::default()));
        sb.execute("sum(reqs_total)", 600_000).unwrap();
        sb.execute("sum((", 0).unwrap_err(); // parse
        sb.execute("rate(reqs_total[7d])", 600_000).unwrap_err(); // refused
        let count_for = |outcome| executions(&registry, outcome);
        assert_eq!(count_for("executed"), 1.0);
        assert_eq!(count_for("parse_failed"), 1.0);
        assert_eq!(count_for("refused"), 1.0);
        assert_eq!(count_for("eval_failed"), 0.0);
    }

    #[test]
    fn canonical_query_is_reported() {
        let sb = Sandbox::new(store(), SafetyPolicy::default());
        let out = sb.execute("sum( reqs_total )", 600_000).unwrap();
        assert_eq!(out.canonical_query, "sum(reqs_total)");
    }

    #[test]
    fn parse_errors_carry_position_and_span_hint() {
        let sb = Sandbox::new(store(), SafetyPolicy::default());
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
        assert!(
            hint.contains(&pos.to_string()),
            "hint lacks position: {hint}"
        );
    }

    #[test]
    fn refusal_hints_name_the_violated_rule() {
        let sb = Sandbox::new(store(), SafetyPolicy::default());
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

    /// A resolver whose store is never reachable: every shard of it
    /// is down.
    #[derive(Debug)]
    struct Unreachable;

    impl StoreResolver for Unreachable {
        fn resolve(
            &self,
            _families: &[String],
            _dynamic: bool,
        ) -> Result<std::sync::Arc<MetricStore>, String> {
            Err("shard 0 has no live copy".into())
        }
    }

    fn unreachable_sandbox() -> Sandbox {
        let mut sb = Sandbox::new(store(), SafetyPolicy::default());
        sb.attach_store_resolver(std::sync::Arc::new(Unreachable));
        sb
    }

    /// A resolver that hands out one healthy store.
    #[derive(Debug)]
    struct Healthy(std::sync::Arc<MetricStore>);

    impl StoreResolver for Healthy {
        fn resolve(
            &self,
            _families: &[String],
            _dynamic: bool,
        ) -> Result<std::sync::Arc<MetricStore>, String> {
            Ok(self.0.clone())
        }
    }

    #[test]
    fn healthy_executions_are_complete_without_chaos() {
        // Through a healthy resolver the query sees every sample the
        // resident store would: same value, same samples visited.
        let resident = Sandbox::new(store(), SafetyPolicy::default());
        let (mut routed, registry) =
            counted(Sandbox::new(MetricStore::new(), SafetyPolicy::default()));
        routed.attach_store_resolver(std::sync::Arc::new(Healthy(std::sync::Arc::new(store()))));
        let q = "sum(rate(reqs_total[5m]))";
        let want = resident.execute(q, 600_000).unwrap();
        let got = routed.execute(q, 600_000).unwrap();
        assert_eq!(got.value, want.value);
        assert_eq!(got.stats.samples_visited, want.stats.samples_visited);
        assert_eq!(executions(&registry, "executed"), 1.0);
    }

    #[test]
    fn transient_store_fault_is_a_retryable_storage_error() {
        let (sb, registry) = counted(unreachable_sandbox());
        let err = sb.execute("sum(reqs_total)", 600_000).unwrap_err();
        assert!(err.is_storage_fault());
        assert!(
            err.to_string().contains("shard 0 has no live copy"),
            "{err}"
        );
        assert!(err.repair_hint("sum(reqs_total)").contains("retry"));
        // A query the policy refuses never reaches the resolver.
        let refused = sb.execute("rate(reqs_total[7d])", 600_000).unwrap_err();
        assert!(matches!(refused, SandboxError::Refused(_)));
        assert_eq!(executions(&registry, "storage_fault"), 1.0);
    }

    #[test]
    fn storage_faults_are_counted_by_outcome() {
        let (sb, registry) = counted(unreachable_sandbox());
        let _ = sb.execute("sum(reqs_total)", 600_000);
        assert_eq!(executions(&registry, "storage_fault"), 1.0);
        assert_eq!(registry.snapshot().total(EXECUTIONS_NAME), 1.0);
    }
}
