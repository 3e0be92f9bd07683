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

use dio_bench::{quick_flag, Experiment};
use dio_benchmark::eval::numeric_match;
use dio_benchmark::WorldConfig;
use dio_catalog::DomainDb;
use dio_copilot::{CopilotBuilder, CopilotConfig};
use dio_llm::FewShotExample;
use dio_obs::{Objective, ObsHub, ObsScraper, Selector, SloEngine, SloSpec};
use dio_serve::{QueryRequest, QueryService, ServeConfig, ServeOutcome, ShedReason, TenantPolicy};
use dio_tsdb::MetricStore;
use serde::Serialize;

/// One simulated-clock tick of the burn drill.
const TICK_MS: u64 = 60_000;
/// The `latency_micros` bucket bound the premium latency SLO is
/// aligned with (100µs × 4^5).
const LATENCY_THRESHOLD_MICROS: f64 = 102_400.0;

#[derive(Debug, Clone, Serialize)]
struct SmokeResult {
    submitted: usize,
    answered: usize,
    shed: usize,
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
struct QaResult {
    question: String,
    metric: String,
    expected: f64,
    answered: Option<f64>,
    query: String,
    correct: bool,
}

#[derive(Debug, Clone, Serialize)]
struct SloDrillArtifact {
    bench: String,
    quick: bool,
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
    qa: Vec<QaResult>,
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

fn main() {
    let quick = quick_flag();

    // ---- Phase 1: real-service smoke burst -------------------------
    let smoke_n = if quick { 12 } else { 24 };
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
    let mut tickets = Vec::new();
    for (i, q) in exp.questions.iter().enumerate() {
        let tenant = if i % 2 == 0 { "premium-0" } else { "tenant-0" };
        if let Ok(t) = service.submit(QueryRequest::new(tenant, &q.text, exp.world.eval_ts)) {
            tickets.push(t);
        }
    }
    let submitted = tickets.len();
    service.shutdown();
    let mut answered = 0usize;
    let mut shed = 0usize;
    for t in tickets {
        match t.wait() {
            ServeOutcome::Answered(_) => answered += 1,
            ServeOutcome::Shed(_) => shed += 1,
        }
    }
    let orphan_spans: usize = hub
        .tracer()
        .recent(smoke_n * 2)
        .iter()
        .filter(|t| t.finished)
        .map(|t| t.orphan_count())
        .sum();
    eprintln!("  {answered} answered, {shed} shed, {orphan_spans} orphan spans");
    assert!(answered > 0, "smoke burst produced no answers");
    assert_eq!(orphan_spans, 0, "smoke burst left orphan spans behind");
    let smoke = SmokeResult {
        submitted,
        answered,
        shed,
        orphan_spans,
    };

    // ---- Phase 2: the burn drill on a simulated clock --------------
    // Same registry, same instruments the service just populated; the
    // drill compresses four hours of class traffic into one process.
    let registry = hub.registry().clone();
    let premium_ok = registry.counter_with(
        "dio_serve_class_requests_total",
        "requests resolved by the query service, by tenant class and outcome",
        &[("class", "premium"), ("outcome", "answered")],
    );
    let standard_ok = registry.counter_with(
        "dio_serve_class_requests_total",
        "requests resolved by the query service, by tenant class and outcome",
        &[("class", "standard"), ("outcome", "answered")],
    );
    let standard_shed = registry.counter_with(
        "dio_serve_class_requests_total",
        "requests resolved by the query service, by tenant class and outcome",
        &[("class", "standard"), ("outcome", "shed")],
    );
    let answered_total = registry.counter_with(
        "dio_serve_requests_total",
        "requests resolved by the query service, by outcome",
        &[("outcome", "answered")],
    );
    let shed_total = registry.counter_with(
        "dio_serve_requests_total",
        "requests resolved by the query service, by outcome",
        &[("outcome", "shed")],
    );
    let shed_throttle = registry.counter_with(
        "dio_serve_shed_total",
        "requests shed by the query service, by reason",
        &[("reason", ShedReason::TenantThrottle.label())],
    );
    let premium_latency = registry.histogram_with(
        "dio_serve_class_latency_micros",
        "submit-to-reply latency of answered requests, by tenant class",
        &dio_obs::Buckets::latency_micros(),
        &[("class", "premium")],
    );

    let mut engine = SloEngine::new(registry.clone());
    engine.add(SloSpec {
        name: "availability-premium".into(),
        target: 0.999,
        objective: Objective::Availability {
            total: Selector::new("dio_serve_class_requests_total", &[("class", "premium")]),
            bad: vec![Selector::new(
                "dio_serve_class_requests_total",
                &[("class", "premium"), ("outcome", "shed")],
            )],
        },
    });
    engine.add(SloSpec {
        name: "availability-standard".into(),
        target: 0.99,
        objective: Objective::Availability {
            total: Selector::new("dio_serve_class_requests_total", &[("class", "standard")]),
            bad: vec![Selector::new(
                "dio_serve_class_requests_total",
                &[("class", "standard"), ("outcome", "shed")],
            )],
        },
    });
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
    let page_for = |slo: &str| {
        Selector::new(
            "dio_slo_alerts_total",
            &[("slo", slo), ("severity", "page")],
        )
        .sum(&snap)
    };
    let ticket_for = |slo: &str| {
        Selector::new(
            "dio_slo_alerts_total",
            &[("slo", slo), ("severity", "ticket")],
        )
        .sum(&snap)
    };
    let slos: Vec<SloGroundTruth> = engine
        .states()
        .iter()
        .map(|s| SloGroundTruth {
            slo: s.name.clone(),
            target: s.target,
            page_activations: page_for(&s.name),
            ticket_activations: ticket_for(&s.name),
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
    assert!(
        standard_paged_during_incident,
        "the standard class burned half its traffic and nothing paged"
    );
    assert!(
        !premium_ever_paged,
        "the premium class stayed healthy but paged anyway"
    );
    let final_standard = engine.state("availability-standard").expect("state");
    assert!(
        !final_standard.page,
        "page failed to clear after two clean recovery hours"
    );
    assert!(
        final_standard.ticket,
        "the slow-window ticket forgot the incident too quickly"
    );

    // ---- Phase 3: the copilot explains the burn --------------------
    eprintln!("phase 3: meta-copilot over the scraped burn telemetry…");
    scrapes += 1;
    let stats = scraper
        .scrape(&registry, last_ts, &mut obs_store)
        .expect("final scrape must round-trip");
    samples_appended += stats.appended;
    let catalog = scraper.catalog(&registry);
    let mut meta = CopilotBuilder::new(DomainDb::from_catalog(catalog), obs_store)
        .model(Experiment::gpt4())
        .config(CopilotConfig {
            generate_dashboards: false,
            ..CopilotConfig::default()
        })
        .exemplars(slo_exemplars())
        .build();
    let cases: Vec<(String, String)> = vec![
        (
            "How many burn-rate alert activations were counted in total?".into(),
            "dio_slo_alerts_total".into(),
        ),
        (
            "How many burn-rate alerts are active right now?".into(),
            "dio_slo_alert_active".into(),
        ),
        (
            "How many requests were shed by the query service?".into(),
            "dio_serve_shed_total".into(),
        ),
        (
            "How many requests did the query service resolve in total?".into(),
            "dio_serve_requests_total".into(),
        ),
        (
            "How much error budget is remaining across every SLO?".into(),
            "dio_slo_error_budget_remaining_ratio".into(),
        ),
    ];
    let qa: Vec<QaResult> = cases
        .into_iter()
        .map(|(question, metric)| {
            let expected = snap.total(&metric);
            let r = meta.ask(&question, last_ts);
            let correct = r
                .numeric_answer
                .map(|v| numeric_match(v, expected))
                .unwrap_or(false);
            QaResult {
                question,
                metric,
                expected,
                answered: r.numeric_answer,
                query: r.query,
                correct,
            }
        })
        .collect();
    println!("\n{:<64} | {:>12} | {:>12} | ok", "question", "answer", "truth");
    println!("{}", "-".repeat(100));
    for qa in &qa {
        println!(
            "{:<64} | {:>12} | {:>12.2} | {}",
            qa.question,
            qa.answered
                .map(|v| format!("{v:.2}"))
                .unwrap_or_else(|| "—".into()),
            qa.expected,
            if qa.correct { "yes" } else { "NO" },
        );
    }
    let qa_correct = qa.iter().filter(|q| q.correct).count();
    eprintln!("\n{qa_correct}/{} burn-state questions verified against the engine", qa.len());

    let artifact = SloDrillArtifact {
        bench: "slo_drill".to_string(),
        quick,
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
    };
    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/BENCH_slo_drill.json";
    std::fs::write(path, serde_json::to_string_pretty(&artifact).unwrap()).expect("write artifact");
    eprintln!("wrote {path}");

    assert!(
        qa_correct >= 4,
        "need at least 4/5 verified burn-state answers, got {qa_correct}"
    );
}
