//! The drill harness: what every gated bin does besides its scenario.
//!
//! * **size** — [`Drill::from_args`] is the one reader of `--quick` and
//!   `--seed=N`; [`Drill::world`] / [`Drill::experiment`] turn that into
//!   the small CI world or the standard one;
//! * **run and score** — [`scored`], [`sequential`], and [`Burst`],
//!   which submits to a `QueryService`, drains every ticket and returns
//!   a [`Tally`];
//! * **audit** — [`audit_traces`] over a tracer's records, the deadline
//!   calibration [`deadline_for`], and the [`FlightRecorder`] that keeps
//!   the interesting trees of a finished ring for [`Drill::dump_traces`];
//! * **write, then gate** — gates are recorded with [`Drill::gate`]
//!   while the drill runs; [`Drill::finish`] writes
//!   `results/BENCH_<name>.json` first and only then fails the process,
//!   naming every failed gate, so a red drill leaves its evidence.

use crate::{percentile, Experiment, BENCHMARK_SIZE};
use dio_benchmark::eval::numeric_match;
use dio_benchmark::{BenchmarkQuestion, WorldConfig};
use dio_copilot::{CopilotError, CopilotResponse, DioCopilot};
use dio_obs::{micros_u64, TraceStatus, Tracer};
use dio_serve::{QueryRequest, QueryService, ServeOutcome, ServedAnswer, ShedReason, Ticket};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

pub use crate::recorder::{FlightRecorder, RecorderConfig};

/// Where artifacts go, relative to the working directory.
pub(crate) const RESULTS_DIR: &str = "results";

/// The one writer of `<dir>/BENCH_<name>.json`.
pub(crate) fn write_artifact(dir: &Path, name: &str, body: &impl Serialize) {
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::create_dir_all(dir).expect("create results dir");
    let json = serde_json::to_string_pretty(body).expect("serialise artifact");
    std::fs::write(&path, json).expect("write artifact");
    eprintln!("wrote {}", path.display());
}

/// One recorded pass/fail check.
#[derive(Debug, Clone, Serialize)]
pub struct Gate {
    /// Stable name, e.g. `ex_parity`.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The numbers it was judged on.
    pub detail: String,
}

/// One drill run: its size, its seed and the gates recorded so far.
pub struct Drill {
    /// Artifact name: `BENCH_<name>.json`, `TRACES_<name>.json`.
    name: String,
    /// The CI smoke size.
    pub quick: bool,
    /// Seed for whatever the scenario randomises.
    pub seed: u64,
    gates: Vec<Gate>,
    dir: PathBuf,
}

/// `--quick` and `--seed=N` out of a command line; anything else is an
/// error, not silently a default.
fn parse_args(
    args: impl Iterator<Item = String>,
    default_seed: u64,
) -> Result<(bool, u64), String> {
    let (mut quick, mut seed) = (false, default_seed);
    for arg in args {
        if arg == "--quick" {
            quick = true;
        } else if let Some(Ok(s)) = arg.strip_prefix("--seed=").map(str::parse) {
            seed = s;
        } else {
            return Err(format!("unrecognised argument `{arg}`"));
        }
    }
    Ok((quick, seed))
}

impl Drill {
    /// The drill the command line asks for, writing under `results/`.
    pub fn from_args(name: &str, default_seed: u64) -> Self {
        match parse_args(std::env::args().skip(1), default_seed) {
            Ok((quick, seed)) => Drill::new(name, quick, seed, RESULTS_DIR),
            Err(e) => {
                eprintln!("{e}\nusage: {name} [--quick] [--seed=N]");
                std::process::exit(2);
            }
        }
    }

    /// A drill of a given size writing under `dir`.
    pub fn new(name: &str, quick: bool, seed: u64, dir: impl Into<PathBuf>) -> Self {
        Drill {
            name: name.to_string(),
            quick,
            seed,
            gates: Vec::new(),
            dir: dir.into(),
        }
    }

    /// The small world under `--quick`, the paper-scale one otherwise.
    pub fn world(&self) -> WorldConfig {
        if self.quick {
            WorldConfig::small()
        } else {
            WorldConfig::default()
        }
    }

    /// [`Drill::world`] with `quick_questions` questions under
    /// `--quick` and the 200-question benchmark otherwise.
    pub fn experiment(&self, quick_questions: usize) -> Experiment {
        let size = if self.quick { "quick" } else { "full" };
        eprintln!("building world ({size})…");
        let n = if self.quick {
            quick_questions
        } else {
            BENCHMARK_SIZE
        };
        Experiment::with_config(self.world(), n)
    }

    /// Record a gate; the drill keeps running either way.
    pub fn gate(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        if !ok {
            eprintln!("  gate {name} FAILED: {detail}");
        }
        self.gates.push(Gate {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// The gates every deadline audit ends in: the audit saw every
    /// accepted request (so a full tracer ring cannot shrink it
    /// silently) and at least one model call (so the two zeroes cannot
    /// hold vacuously), and no model call follows a lapse or is stamped
    /// past budget + grace.
    pub fn gate_deadline_audit(&mut self, scope: &str, tally: &Tally, audit: &TraceAudit) {
        let (accepted, a) = (tally.accepted, audit);
        self.gate(
            &format!("{scope}:audit_covers_every_accepted_request"),
            a.picked_up == accepted,
            format!(
                "audited {} of {accepted} accepted ({} finished traces)",
                a.picked_up, a.finished
            ),
        );
        self.gate(
            &format!("{scope}:audit_saw_a_model_call"),
            a.traces_with_model_call >= 1,
            format!(
                "{} audited traces hold a model_call",
                a.traces_with_model_call
            ),
        );
        self.gate(
            &format!("{scope}:no_model_call_after_lapse"),
            a.model_calls_after_lapse == 0,
            format!(
                "{} model calls recorded after a deadline_exceeded event",
                a.model_calls_after_lapse
            ),
        );
        self.gate(
            &format!("{scope}:no_model_call_past_budget"),
            a.model_calls_past_budget == 0,
            format!(
                "{} model calls stamped past budget + grace",
                a.model_calls_past_budget
            ),
        );
    }

    /// Write the flight recorder's retained trees to
    /// `TRACES_<name>.json` beside the artifact; returns `(trees, path)`.
    pub fn dump_traces(&self, recorder: &FlightRecorder) -> (usize, String) {
        let path = self.dir.join(format!("TRACES_{}.json", self.name));
        let trees = recorder.dump(&path).expect("dump trace trees");
        (trees, path.display().to_string())
    }

    /// Write the artifact — run envelope, then `body`'s fields, then
    /// the gate list — and only then judge: failure names every failed
    /// gate.
    pub fn finish(self, body: &impl Serialize) -> ExitCode {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut fields = vec![
            ("bench".to_string(), self.name.to_value()),
            ("quick".to_string(), self.quick.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("available_parallelism".to_string(), cores.to_value()),
            ("git_rev".to_string(), git_rev().to_value()),
        ];
        let Value::Obj(body) = body.to_value() else {
            panic!("a drill's body is a struct")
        };
        fields.extend(body);
        fields.push(("gates".to_string(), self.gates.to_value()));
        write_artifact(&self.dir, &self.name, &Value::Obj(fields));
        let failed: Vec<&str> = self
            .gates
            .iter()
            .filter(|g| !g.ok)
            .map(|g| g.name.as_str())
            .collect();
        eprintln!(
            "{}: {} gates, failed: {failed:?}",
            self.name,
            self.gates.len()
        );
        if failed.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// `git rev-parse --short HEAD` of the working directory, so an
/// artifact names the revision that wrote it; `"unknown"` without git
/// or outside a checkout.
pub(crate) fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// EX scoring: the answer exists and matches the reference numerically.
pub fn scored(answer: Option<f64>, reference: f64) -> bool {
    answer.is_some_and(|v| numeric_match(v, reference))
}

/// The sequential baseline: one copilot asks every question in order.
/// Returns whether each answer scored; `each` sees every response.
pub fn sequential(
    copilot: &DioCopilot,
    questions: &[BenchmarkQuestion],
    eval_ts: i64,
    mut each: impl FnMut(&CopilotResponse),
) -> Vec<bool> {
    questions
        .iter()
        .map(|q| {
            let r = copilot.ask(&q.text, eval_ts);
            each(&r);
            scored(r.numeric_answer, q.reference.numeric)
        })
        .collect()
}

/// p50 / p95 / p99 of a sample set, by [`percentile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct Latency {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Latency {
    /// Sort `samples` and read the three percentiles (0 when empty).
    pub fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Latency {
            p50: percentile(&samples, 0.50),
            p95: percentile(&samples, 0.95),
            p99: percentile(&samples, 0.99),
        }
    }
}

/// Tenants a burst rotates through (all standard class).
pub const TENANTS: [&str; 4] = ["noc-east", "noc-west", "core-eng", "dashboards"];

/// One request per question, tenants rotating, each paired with the
/// reference its answer is scored against.
pub fn requests(
    questions: &[BenchmarkQuestion],
    eval_ts: i64,
) -> impl Iterator<Item = (QueryRequest, f64)> + Clone + '_ {
    questions.iter().enumerate().map(move |(i, q)| {
        let tenant = TENANTS[i % TENANTS.len()];
        (
            QueryRequest::new(tenant, &q.text, eval_ts),
            q.reference.numeric,
        )
    })
}

/// What became of a burst of requests.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Tally {
    /// Submits that got a ticket.
    pub accepted: usize,
    /// Submits refused on the spot (also counted in `shed`).
    pub refused_at_submit: usize,
    /// Tickets that resolved to an answer.
    pub answered: usize,
    /// Answers that scored against their reference.
    pub correct: usize,
    /// Answers that are a deadline abort: a worker picked the request
    /// up in time and the pipeline gave up part-way.
    pub deadline_aborted: usize,
    /// Everything unanswered, by `ShedReason` label — refusals at
    /// submit and tickets that resolved as shed alike.
    pub shed: BTreeMap<String, usize>,
    /// Answers served from the exact answer cache.
    pub answer_cache_hits: usize,
    /// Answers served from a semantic-cache neighbour.
    pub semantic_hits: usize,
    /// Answers coalesced off another request's computation.
    pub coalesced: usize,
    /// First submit to last reply.
    pub wall_seconds: f64,
    /// Queue wait of answered requests, µs.
    pub queue_wait_micros: Latency,
    /// Worker time of answered requests, µs.
    pub service_micros: Latency,
    /// Submit-to-reply latency of answered requests, µs.
    pub total_micros: Latency,
}

impl Tally {
    /// Answers worth having: everything answered that is not a
    /// deadline abort.
    pub fn goodput(&self) -> usize {
        self.answered - self.deadline_aborted
    }

    /// Unanswered requests, all reasons.
    pub fn shed_total(&self) -> usize {
        self.shed.values().sum()
    }

    /// Unanswered requests for one reason. A ticket whose reply never
    /// came counts under [`ShedReason::WorkerPanic`].
    pub fn shed_for(&self, reason: ShedReason) -> usize {
        self.shed.get(reason.label()).copied().unwrap_or(0)
    }
}

/// A burst in flight: submit (all at once, or keeping the queue
/// saturated), then drain every ticket into a [`Tally`].
pub struct Burst {
    started: Instant,
    open: Vec<(Ticket, f64)>,
    tally: Tally,
    /// Queue-wait, service and total µs of every answer so far.
    samples: [Vec<f64>; 3],
}

impl Burst {
    /// Start the clock.
    pub fn start() -> Self {
        Burst {
            started: Instant::now(),
            open: Vec::new(),
            tally: Tally::default(),
            samples: Default::default(),
        }
    }

    fn submit(
        &mut self,
        service: &QueryService,
        (request, reference): (QueryRequest, f64),
    ) -> bool {
        match service.submit(request) {
            Ok(ticket) => {
                self.tally.accepted += 1;
                self.open.push((ticket, reference));
                true
            }
            Err(shed) => {
                self.tally.refused_at_submit += 1;
                *self
                    .tally
                    .shed
                    .entry(shed.reason.label().to_string())
                    .or_default() += 1;
                false
            }
        }
    }

    /// Submit every request once, back to back.
    pub fn submit_all(
        &mut self,
        service: &QueryService,
        requests: impl IntoIterator<Item = (QueryRequest, f64)>,
    ) {
        for r in requests {
            self.submit(service, r);
        }
    }

    /// Keep the service's queue full until `target` requests have been
    /// accepted. The submitter waits for queue room, and after a refusal
    /// (the brownout ladder's top rung refuses while a backlog exists)
    /// for the backlog to shrink, instead of hammering `submit`: every
    /// refusal is a finished trace, and thousands of them would push
    /// the accepted requests out of the tracer's ring before the audit.
    pub fn saturate(
        &mut self,
        service: &QueryService,
        mut requests: impl Iterator<Item = (QueryRequest, f64)>,
        target: usize,
    ) {
        let pause = || std::thread::sleep(Duration::from_micros(50));
        // Submit only while fewer than `room` are queued: the queue's
        // depth, or after a refusal the backlog that refusal met.
        let mut room = service.config().queue_depth;
        while self.tally.accepted < target {
            let queued = service.queue_len();
            if queued >= room {
                pause();
                continue;
            }
            let Some(request) = requests.next() else {
                break;
            };
            room = if self.submit(service, request) {
                service.config().queue_depth
            } else {
                pause();
                queued.max(1)
            };
        }
    }

    /// Wait for every open ticket; `each` sees every answer.
    pub fn drain(&mut self, mut each: impl FnMut(&ServedAnswer)) {
        for (ticket, reference) in self.open.drain(..) {
            match ticket.wait() {
                ServeOutcome::Answered(a) => {
                    let t = &mut self.tally;
                    t.answered += 1;
                    t.correct += usize::from(scored(a.response.numeric_answer, reference));
                    let aborted = matches!(
                        a.response.error,
                        Some(CopilotError::DeadlineExceeded { .. })
                    );
                    t.deadline_aborted += usize::from(aborted);
                    t.answer_cache_hits += usize::from(a.answer_cache_hit);
                    t.semantic_hits += usize::from(a.semantic_cache_hit);
                    t.coalesced += usize::from(a.coalesced);
                    let (wait, service) = (a.queue_wait, a.service_time);
                    for (samples, d) in self.samples.iter_mut().zip([wait, service, wait + service])
                    {
                        samples.push(d.as_micros() as f64);
                    }
                    each(&a);
                }
                ServeOutcome::Shed(s) => {
                    *self
                        .tally
                        .shed
                        .entry(s.reason.label().to_string())
                        .or_default() += 1;
                }
            }
        }
    }

    /// Drain what is still open and close the tally.
    pub fn finish(mut self) -> Tally {
        self.drain(|_| {});
        let [wait, service, total] = self.samples.map(Latency::of);
        Tally {
            wall_seconds: self.started.elapsed().as_secs_f64(),
            queue_wait_micros: wait,
            service_micros: service,
            total_micros: total,
            ..self.tally
        }
    }
}

/// The tight deadline the overload and gateway drills run under is
/// calibrated at run time: `DEADLINE_MULT` × the measured mean ask of
/// the drill's own pipeline, floored at `DEADLINE_FLOOR`. A saturated
/// 8-deep / 2-worker queue makes a typical accepted request wait ≈ 4
/// service times, so 3× lets the early pickups answer while the tail
/// provably lapses at any world size or machine speed; the floor only
/// keeps scheduler jitter from deciding the drill and must stay below
/// 3× a quick-world ask (≈ 2–3 ms since a quick ask takes ≈ 0.7–1 ms)
/// or nothing ever lapses. A drill that needs more room against jitter
/// raises its own floor on top (`model_gateway`'s one burst).
const DEADLINE_MULT: u32 = 3;
const DEADLINE_FLOOR: Duration = Duration::from_millis(1);
/// Scheduling grace for the `at_micros` audit and for "late" answers:
/// the pipeline checks the budget *before* stamping `model_call`, so a
/// stamp can land a context switch after a check that passed just
/// under the wire. The event-order audit has no such slack.
pub const AUDIT_GRACE: Duration = Duration::from_millis(25);

/// The drill deadline for a pipeline that took `elapsed` over `asks`.
pub fn deadline_for(elapsed: Duration, asks: usize) -> Duration {
    (elapsed / asks.max(1) as u32 * DEADLINE_MULT).max(DEADLINE_FLOOR)
}

/// What the traces of a run show, over *finished* traces only.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TraceAudit {
    /// Finished traces seen.
    pub finished: usize,
    /// Of those, requests a worker picked up (they hold a `queue_wait`
    /// span) — compare with the accepted count for audit coverage.
    pub picked_up: usize,
    /// Spans unreachable from their trace root.
    pub orphan_spans: usize,
    /// Traces holding at least one `model_call` event.
    pub traces_with_model_call: usize,
    /// `model_call` events after a `deadline_exceeded` event on the
    /// same trace (event order; no slack).
    pub model_calls_after_lapse: usize,
    /// `model_call` events stamped later than budget + [`AUDIT_GRACE`]
    /// on the trace clock.
    pub model_calls_past_budget: usize,
    /// Traces that finished as [`TraceStatus::DeadlineExceeded`].
    pub lapsed_traces: usize,
}

/// Audit every trace `tracer` holds against a request budget.
pub fn audit_traces(tracer: &Tracer, budget: Duration) -> TraceAudit {
    let limit = micros_u64(budget).saturating_add(micros_u64(AUDIT_GRACE));
    let mut audit = TraceAudit::default();
    for t in tracer.recent(usize::MAX).iter().filter(|t| t.finished) {
        audit.finished += 1;
        audit.picked_up += usize::from(t.has_span("queue_wait"));
        audit.orphan_spans += t.orphan_count();
        audit.lapsed_traces += usize::from(t.status == TraceStatus::DeadlineExceeded);
        let (mut lapsed, mut called) = (false, false);
        for e in &t.events {
            match e.name.as_str() {
                "deadline_exceeded" => lapsed = true,
                "model_call" => {
                    called = true;
                    audit.model_calls_after_lapse += usize::from(lapsed);
                    let at = e.attrs.iter().find(|(k, _)| k == "at_micros");
                    let at: u64 = at.and_then(|(_, v)| v.parse().ok()).unwrap_or(0);
                    audit.model_calls_past_budget += usize::from(at > limit);
                }
                _ => {}
            }
        }
        audit.traces_with_model_call += usize::from(called);
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_are_quick_and_seed_only() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()), 7);
        assert_eq!(parse(&[]), Ok((false, 7)));
        assert_eq!(parse(&["--quick", "--seed=42"]), Ok((true, 42)));
        assert!(parse(&["--seed=abc"]).is_err());
        assert!(parse(&["--concurrency=8"]).is_err());
    }

    #[test]
    fn quick_is_the_small_world_and_n_questions() {
        let dir = std::env::temp_dir();
        let quick = Drill::new("t", true, 1, &dir);
        let full = Drill::new("t", false, 1, &dir);
        assert_eq!(
            quick.world().instances_per_nf,
            WorldConfig::small().instances_per_nf
        );
        assert_eq!(
            full.world().instances_per_nf,
            WorldConfig::default().instances_per_nf
        );
        assert_eq!(quick.experiment(7).questions.len(), 7);
    }

    #[test]
    fn scored_is_numeric_match_on_a_present_answer() {
        let cases = [
            (10.0, 10.0),
            (10.0 + 1e-12, 10.0),
            (10.1, 10.0),
            (0.0, 0.0),
            (f64::NAN, 10.0),
            (10.0, f64::NAN),
            (f64::INFINITY, f64::INFINITY),
            // `|v − r| ≤ ε·|r|` alone calls this one a match.
            (10.0, f64::INFINITY),
        ];
        for (answer, reference) in cases {
            assert_eq!(
                scored(Some(answer), reference),
                numeric_match(answer, reference)
            );
            assert!(!scored(None, reference));
        }
        assert!(!scored(Some(10.0), f64::INFINITY));
        assert!(!scored(Some(f64::INFINITY), f64::INFINITY));
    }

    #[test]
    fn latency_reads_percentile_on_empty_one_and_many() {
        assert_eq!(Latency::of(vec![]), Latency::default());
        assert_eq!(
            Latency::of(vec![3.0]),
            Latency {
                p50: 3.0,
                p95: 3.0,
                p99: 3.0
            }
        );
        let many: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let mut sorted = many.clone();
        sorted.sort_by(f64::total_cmp);
        let l = Latency::of(many);
        assert_eq!(l.p50, percentile(&sorted, 0.50));
        assert_eq!(l.p95, percentile(&sorted, 0.95));
        assert_eq!(l.p99, percentile(&sorted, 0.99));
    }

    #[test]
    fn audit_counts_late_model_calls_orphans_and_pickups() {
        let budget = Duration::from_millis(10);
        let past = (micros_u64(budget + AUDIT_GRACE) + 1).to_string();
        let t = Tracer::new();
        // Picked up, one model call in time: clean.
        let ok = t.begin_trace("ok");
        t.record_span(&t.child_of(&ok), "queue_wait", 0, 5, &[]);
        t.event(&ok, "model_call", &[("at_micros", "900")]);
        t.finish_trace(&ok, TraceStatus::Ok);
        // Lapsed, then called the model anyway — and stamped past
        // budget + grace.
        let late = t.begin_trace("late");
        t.record_span(&t.child_of(&late), "queue_wait", 0, 5, &[]);
        t.event(&late, "model_call", &[("at_micros", "1000")]);
        t.event(&late, "deadline_exceeded", &[("stage", "generate")]);
        t.event(&late, "model_call", &[("at_micros", &past)]);
        t.finish_trace(&late, TraceStatus::DeadlineExceeded);
        // Refused at submit: finished, never picked up; one span whose
        // parent was never recorded.
        let refused = t.begin_trace("refused");
        let lost_parent = t.child_of(&refused);
        t.record_span(&t.child_of(&lost_parent), "stray", 0, 1, &[]);
        t.finish_trace(&refused, TraceStatus::Shed);
        // Still running: ignored, whatever it holds.
        let open = t.begin_trace("open");
        t.event(&open, "deadline_exceeded", &[]);
        t.event(&open, "model_call", &[("at_micros", &past)]);

        let audit = audit_traces(&t, budget);
        assert_eq!(
            audit,
            TraceAudit {
                finished: 3,
                picked_up: 2,
                orphan_spans: 1,
                traces_with_model_call: 2,
                model_calls_after_lapse: 1,
                model_calls_past_budget: 1,
                lapsed_traces: 1,
            }
        );
        assert_eq!(
            deadline_for(Duration::from_millis(40), 4),
            Duration::from_millis(30)
        );
        assert_eq!(deadline_for(Duration::from_micros(400), 4), DEADLINE_FLOOR);
    }

    #[test]
    fn a_failed_gate_leaves_its_artifact_and_fails_the_run() {
        #[derive(Serialize)]
        struct Body {
            answered: usize,
        }
        let dir = std::env::temp_dir().join(format!("dio-drill-{}", std::process::id()));
        let mut red = Drill::new("red", true, 9, &dir);
        red.gate("holds", true, "3 >= 3");
        red.gate("breaks", false, "2 < 3");
        assert_eq!(red.finish(&Body { answered: 2 }), ExitCode::FAILURE);
        let json = std::fs::read_to_string(dir.join("BENCH_red.json")).expect("artifact on disk");
        let doc = serde_json::parse(&json).expect("artifact parses");
        assert_eq!(doc.get("bench"), Some(&Value::Str("red".into())));
        assert_eq!(doc.get("quick"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("seed"), Some(&Value::Int(9)));
        assert!(doc.get("available_parallelism").is_some());
        assert!(
            matches!(doc.get("git_rev"), Some(Value::Str(rev)) if !rev.is_empty()),
            "{json}"
        );
        assert_eq!(doc.get("answered"), Some(&Value::Int(2)));
        let Some(Value::Arr(gates)) = doc.get("gates") else {
            panic!("no gate list: {json}")
        };
        let verdicts: Vec<_> = gates
            .iter()
            .map(|g| (g.get("name").cloned(), g.get("ok").cloned()))
            .collect();
        assert_eq!(
            verdicts,
            [
                (Some(Value::Str("holds".into())), Some(Value::Bool(true))),
                (Some(Value::Str("breaks".into())), Some(Value::Bool(false))),
            ]
        );

        let mut green = Drill::new("green", true, 9, &dir);
        green.gate("holds", true, "");
        assert_eq!(green.finish(&Body { answered: 3 }), ExitCode::SUCCESS);
        std::fs::remove_dir_all(&dir).ok();
    }
}
