//! `slo_drill` — the burn-rate alerting drill: a misbehaving tenant
//! class burns its error budget, the SLO engine pages, and the
//! self-observation copilot explains it back in natural language.
//!
//! Phases:
//!
//! 1. **smoke** — a real `QueryService` burst with premium and
//!    standard tenants populates the `dio_serve_*` class instruments
//!    end-to-end (and every request must leave a fully rooted span
//!    tree behind — orphan count zero);
//! 2. **burn drill** — four simulated hours of class traffic on the
//!    same registry instruments, compressed onto the SLO engine's
//!    simulated clock: one healthy hour, one incident hour where the
//!    standard class sheds half its requests, two recovery hours. The
//!    page must fire for `availability-standard` during the incident
//!    and clear in recovery; the slow-window ticket must keep burning;
//!    `availability-premium` and `latency-premium` must stay clean;
//! 3. **self-observation** — the registry (now carrying `dio_slo_*`
//!    series) is scraped into a TSDB, a catalog is derived, and a
//!    meta-copilot answers natural-language questions about the burn
//!    state — which class is burning budget, how many alerts fired —
//!    verified against the engine's own ground truth (≥ 4/5 must
//!    match).
//!
//! Flags: `--quick` (smaller smoke burst). Writes
//! `results/BENCH_slo_drill.json`.

use dio_bench::drill::{audit_traces, Burst, Drill, Tally};
use dio_bench::selfobs::{ask_about, meta_copilot, print_qa, SelfQa};
use dio_bench::Experiment;
use dio_benchmark::WorldConfig;
use dio_copilot::{CopilotBuilder, CopilotConfig};
use dio_llm::FewShotExample;
use dio_obs::{Objective, ObsHub, ObsScraper, Selector, SloEngine, SloSpec};
use dio_serve::{QueryRequest, QueryService, ServeConfig, ShedReason, TenantPolicy};
use dio_tsdb::MetricStore;
use serde::Serialize;
use std::process::ExitCode;
use std::time::Duration;

/// One simulated-clock tick of the burn drill.
const TICK_MS: u64 = 60_000;
/// The `latency_micros` bucket bound the premium latency SLO is
/// aligned with (100µs × 4^5).
const LATENCY_THRESHOLD_MICROS: f64 = 102_400.0;

#[derive(Debug, Clone, Serialize)]
struct SmokeResult {
    tally: Tally,
    orphan_spans: usize,
}

#[derive(Debug, Clone, Serialize)]
struct SloGroundTruth {
    slo: String,
    target: f64,
    page_activations: f64,
    ticket_activations: f64,
    page_active: bool,
    ticket_active: bool,
    burn_5m: f64,
    burn_1h: f64,
    burn_6h: f64,
    burn_3d: f64,
    budget_remaining_ratio: f64,
}

#[derive(Debug, Clone, Serialize)]
struct SloDrillArtifact {
    smoke: SmokeResult,
    healthy_ticks: u64,
    incident_ticks: u64,
    recovery_ticks: u64,
    burning_slo: String,
    burning_class: String,
    burn_cause: String,
    slos: Vec<SloGroundTruth>,
    scrapes: usize,
    samples_appended: usize,
    qa: Vec<SelfQa>,
    qa_correct: usize,
}

/// Few-shot exemplars in the SLO-telemetry domain.
fn slo_exemplars() -> Vec<FewShotExample> {
    vec![
        FewShotExample {
            question: "How many worker panics did the service record?".into(),
            metrics: vec!["dio_serve_worker_panics_total".into()],
            promql: "sum(dio_serve_worker_panics_total)".into(),
        },
        FewShotExample {
            question: "How many page severity alerts fired for the availability objective?".into(),
            metrics: vec!["dio_slo_alerts_total".into()],
            promql: "sum(dio_slo_alerts_total{severity=\"page\"})".into(),
        },
        FewShotExample {
            question: "How much error budget remains for the premium availability objective?"
                .into(),
            metrics: vec!["dio_slo_error_budget_remaining_ratio".into()],
            promql: "sum(dio_slo_error_budget_remaining_ratio{slo=\"availability-premium\"})"
                .into(),
        },
    ]
}

fn main() -> ExitCode {
    let mut drill = Drill::from_args("slo_drill", 0);

    // ---- Phase 1: real-service smoke burst -------------------------
    let smoke_n = if drill.quick { 12 } else { 24 };
    eprintln!("phase 1: serve smoke burst ({smoke_n} questions, premium + standard)…");
    let exp = Experiment::with_config(WorldConfig::small(), smoke_n);
    let hub = ObsHub::new();
    let prototype = CopilotBuilder::new(exp.world.domain_db(), exp.world.store.clone())
        .model(Experiment::gpt4())
        .config(CopilotConfig {
            generate_dashboards: false,
            ..CopilotConfig::default()
        })
        .exemplars(exp.exemplars.clone())
        .obs(hub.clone())
        .build();
    let service = QueryService::spawn(
        &prototype,
        Experiment::gpt4,
        ServeConfig {
            workers: 2,
            queue_depth: smoke_n * 2,
            tenant: TenantPolicy::unlimited(),
            ..ServeConfig::default()
        },
    );
    let mut burst = Burst::start();
    burst.submit_all(
        &service,
        exp.questions.iter().enumerate().map(|(i, q)| {
            let tenant = if i % 2 == 0 { "premium-0" } else { "tenant-0" };
            (QueryRequest::new(tenant, &q.text, exp.world.eval_ts), q.reference.numeric)
        }),
    );
    service.shutdown();
    let tally = burst.finish();
    let orphan_spans = audit_traces(hub.tracer(), Duration::MAX).orphan_spans;
    eprintln!("  {} answered, shed {:?}, {orphan_spans} orphan spans", tally.answered, tally.shed);
    drill.gate("smoke:burst_produced_an_answer", tally.answered > 0, format!("{} answered", tally.answered));
    drill.gate(
        "smoke:no_orphan_spans",
        orphan_spans == 0,
        format!("{orphan_spans} spans unreachable from their root"),
    );
    let smoke = SmokeResult { tally, orphan_spans };

    // ---- Phase 2: the burn drill on a simulated clock --------------
    // Same registry, same instruments the service just populated; the
    // drill compresses four hours of class traffic into one process.
    let registry = hub.registry().clone();
    // The service registered every one of these families in phase 1
    // (a family keeps its first help text); the drill only takes
    // handles on their series.
    let counter = |name: &str, labels: &[(&str, &str)]| registry.counter_with(name, "", labels);
    const CLASS_REQUESTS: &str = "dio_serve_class_requests_total";
    let premium_ok = counter(CLASS_REQUESTS, &[("class", "premium"), ("outcome", "answered")]);
    let standard_ok = counter(CLASS_REQUESTS, &[("class", "standard"), ("outcome", "answered")]);
    let standard_shed = counter(CLASS_REQUESTS, &[("class", "standard"), ("outcome", "shed")]);
    let answered_total = counter("dio_serve_requests_total", &[("outcome", "answered")]);
    let shed_total = counter("dio_serve_requests_total", &[("outcome", "shed")]);
    let shed_throttle =
        counter("dio_serve_shed_total", &[("reason", ShedReason::TenantThrottle.label())]);
    let premium_latency = registry.histogram_with(
        "dio_serve_class_latency_micros",
        "",
        &dio_obs::Buckets::latency_micros(),
        &[("class", "premium")],
    );

    let mut engine = SloEngine::new(registry.clone());
    for (class, target) in [("premium", 0.999), ("standard", 0.99)] {
        engine.add(SloSpec {
            name: format!("availability-{class}"),
            target,
            objective: Objective::Availability {
                total: Selector::new(CLASS_REQUESTS, &[("class", class)]),
                bad: vec![Selector::new(CLASS_REQUESTS, &[("class", class), ("outcome", "shed")])],
            },
        });
    }
    engine.add(SloSpec {
        name: "latency-premium".into(),
        target: 0.95,
        objective: Objective::LatencyThreshold {
            histogram: Selector::new("dio_serve_class_latency_micros", &[("class", "premium")]),
            threshold_micros: LATENCY_THRESHOLD_MICROS,
        },
    });

    let (healthy, incident, recovery) = (60u64, 60u64, 120u64);
    eprintln!(
        "phase 2: burn drill — {healthy}m healthy, {incident}m incident (standard sheds 50%), {recovery}m recovery…"
    );
    let scraper = ObsScraper::new();
    let mut obs_store = MetricStore::new();
    let mut scrapes = 0usize;
    let mut samples_appended = 0usize;
    let mut standard_paged_during_incident = false;
    let mut premium_ever_paged = false;
    let total_ticks = healthy + incident + recovery;
    for tick in 0..total_ticks {
        let incident_now = tick >= healthy && tick < healthy + incident;
        // Premium: 20 requests/min, none shed, 5% over the latency
        // threshold — exactly on its latency budget, never on the
        // availability one.
        premium_ok.add(20.0);
        answered_total.add(20.0);
        for _ in 0..19 {
            premium_latency.observe(6_000.0);
        }
        premium_latency.observe(500_000.0);
        // Standard: 100 requests/min; 1% throttle sheds when healthy
        // (on budget for the 0.99 target), 50% during the incident.
        let sheds = if incident_now { 50.0 } else { 1.0 };
        standard_ok.add(100.0 - sheds);
        standard_shed.add(sheds);
        answered_total.add(100.0 - sheds);
        shed_total.add(sheds);
        shed_throttle.add(sheds);
        let states = engine.observe(tick * TICK_MS, &registry.snapshot());
        for s in &states {
            if s.page && s.name == "availability-standard" && incident_now {
                standard_paged_during_incident = true;
            }
            if s.page && s.name == "availability-premium" {
                premium_ever_paged = true;
            }
        }
        // Scrape every simulated half hour so the meta-copilot sees
        // real burn history, not just the final state.
        if (tick + 1) % 30 == 0 {
            scrapes += 1;
            let stats = scraper
                .scrape(&registry, (tick * TICK_MS) as i64, &mut obs_store)
                .expect("scrape must round-trip");
            samples_appended += stats.appended;
        }
    }
    let last_ts = ((total_ticks - 1) * TICK_MS) as i64;

    let snap = registry.snapshot();
    let alerts = |slo: &str, severity: &str| {
        Selector::new("dio_slo_alerts_total", &[("slo", slo), ("severity", severity)]).sum(&snap)
    };
    let slos: Vec<SloGroundTruth> = engine
        .states()
        .iter()
        .map(|s| SloGroundTruth {
            slo: s.name.clone(),
            target: s.target,
            page_activations: alerts(&s.name, "page"),
            ticket_activations: alerts(&s.name, "ticket"),
            page_active: s.page,
            ticket_active: s.ticket,
            burn_5m: s.burn_for("5m"),
            burn_1h: s.burn_for("1h"),
            burn_6h: s.burn_for("6h"),
            burn_3d: s.burn_for("3d"),
            budget_remaining_ratio: s.budget_remaining_ratio,
        })
        .collect();
    for s in &slos {
        eprintln!(
            "  {}: page×{:.0} ticket×{:.0} burn(5m {:.1}, 1h {:.1}, 6h {:.1}, 3d {:.1}) budget {:.2}",
            s.slo, s.page_activations, s.ticket_activations, s.burn_5m, s.burn_1h, s.burn_6h,
            s.burn_3d, s.budget_remaining_ratio
        );
    }
    drill.gate(
        "burn:standard_paged_during_incident",
        standard_paged_during_incident,
        "the standard class shed half its traffic for an hour",
    );
    drill.gate(
        "burn:premium_never_paged",
        !premium_ever_paged,
        "the premium class stayed healthy throughout",
    );
    let final_standard = engine.state("availability-standard").expect("state");
    drill.gate(
        "burn:page_cleared_in_recovery",
        !final_standard.page,
        "two clean recovery hours after the incident",
    );
    drill.gate(
        "burn:slow_window_ticket_still_burning",
        final_standard.ticket,
        "the 6h/3d windows must remember the incident",
    );

    // ---- Phase 3: the copilot explains the burn --------------------
    eprintln!("phase 3: meta-copilot over the scraped burn telemetry…");
    scrapes += 1;
    let stats = scraper
        .scrape(&registry, last_ts, &mut obs_store)
        .expect("final scrape must round-trip");
    samples_appended += stats.appended;
    let mut meta = meta_copilot(scraper.catalog(&registry), obs_store, slo_exemplars());
    let cases = [
        ("How many burn-rate alert activations were counted in total?", "dio_slo_alerts_total"),
        ("How many burn-rate alerts are active right now?", "dio_slo_alert_active"),
        ("How many requests were shed by the query service?", "dio_serve_shed_total"),
        ("How many requests did the query service resolve in total?", "dio_serve_requests_total"),
        (
            "How much error budget is remaining across every SLO?",
            "dio_slo_error_budget_remaining_ratio",
        ),
    ];
    let qa = ask_about(&mut meta, &snap, &cases, last_ts);
    let qa_correct = print_qa(&qa);
    drill.gate(
        "meta_copilot_verifies_4_of_5",
        qa_correct >= 4,
        format!("{qa_correct} of {} burn-state answers match the engine", qa.len()),
    );

    drill.finish(&SloDrillArtifact {
        smoke,
        healthy_ticks: healthy,
        incident_ticks: incident,
        recovery_ticks: recovery,
        burning_slo: "availability-standard".to_string(),
        burning_class: "standard".to_string(),
        burn_cause: "tenant_throttle sheds at 50% of standard-class traffic".to_string(),
        slos,
        scrapes,
        samples_appended,
        qa,
        qa_correct,
    })
}
