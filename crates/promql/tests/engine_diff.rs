//! Differential harness: the vectorized executor is only allowed to
//! exist because it is *byte-identical* to the tree-walking
//! interpreter. Every benchmark reference query and a seeded stream of
//! generated queries run through both executors; results must match
//! bit-for-bit (f64s compared by `to_bits`, so NaN positions count
//! too), errors must match verbatim, and the sample-budget accounting
//! must agree exactly.

use dio_benchmark::{generate_benchmark, OperatorWorld, WorldConfig};
use dio_promql::{Engine, EngineOptions, ExecutorKind, Value};
use dio_tsdb::{Labels, MetricStore, Sample};

/// Render a `Value` with every float spelled as raw bits, so two
/// fingerprints are equal iff the values are byte-identical (ordinary
/// `PartialEq` treats NaN != NaN and so can't prove identity).
fn fingerprint(v: &Value) -> String {
    match v {
        Value::Scalar(x) => format!("scalar:{:016x}", x.to_bits()),
        Value::Str(s) => format!("str:{s}"),
        Value::Vector(samples) => {
            let mut out = String::from("vector:");
            for s in samples {
                out.push_str(&format!("{:?}={:016x};", s.labels, s.value.to_bits()));
            }
            out
        }
        Value::Matrix(series) => {
            let mut out = String::from("matrix:");
            for s in series {
                out.push_str(&format!("{:?}=[", s.labels));
                for p in &s.samples {
                    out.push_str(&format!("{}@{:016x},", p.timestamp_ms, p.value.to_bits()));
                }
                out.push_str("];");
            }
            out
        }
    }
}

fn engines(store: &MetricStore, max_samples: usize) -> (Engine, Engine) {
    let mk = |executor| {
        Engine::with_options(
            store.clone(),
            EngineOptions {
                max_samples,
                executor,
                ..EngineOptions::default()
            },
        )
    };
    (mk(ExecutorKind::Vectorized), mk(ExecutorKind::Interpreter))
}

/// Run one query through both executors and demand identical outcomes:
/// same fingerprint and same sample count on success, same error text
/// on failure.
fn assert_identical(vec_engine: &Engine, interp: &Engine, query: &str, ts: i64) {
    let expr = match dio_promql::parse(query) {
        Ok(e) => e,
        Err(_) => return, // both engines share one parser; nothing to diff
    };
    let got = vec_engine.instant_query_expr(&expr, ts);
    let want = interp.instant_query_expr(&expr, ts);
    match (got, want) {
        (Ok((gv, gs)), Ok((wv, ws))) => {
            assert_eq!(
                fingerprint(&gv),
                fingerprint(&wv),
                "value diverged for `{query}` @ {ts}"
            );
            assert_eq!(
                gs.samples_visited, ws.samples_visited,
                "sample accounting diverged for `{query}` @ {ts}"
            );
        }
        (Err(ge), Err(we)) => {
            assert_eq!(
                ge.to_string(),
                we.to_string(),
                "errors diverged for `{query}` @ {ts}"
            );
        }
        (g, w) => panic!("outcome diverged for `{query}` @ {ts}: {g:?} vs {w:?}"),
    }
}

#[test]
fn all_benchmark_questions_agree() {
    let world = OperatorWorld::build(WorldConfig::small());
    let questions = generate_benchmark(&world, 200, 0xd1ff);
    assert_eq!(questions.len(), 200, "benchmark generator under-delivered");
    let (vec_engine, interp) = engines(&world.store, 0);
    for q in &questions {
        assert_identical(&vec_engine, &interp, &q.reference.promql, world.eval_ts);
        // Off-grid and pre-history timestamps exercise lookback and
        // empty-window paths the happy path never touches.
        assert_identical(&vec_engine, &interp, &q.reference.promql, world.eval_ts - 17_123);
        assert_identical(&vec_engine, &interp, &q.reference.promql, -1);
    }
}

/// Run one range query through both executors and demand identical
/// outcomes: the same series in the same order, every point's
/// timestamp and value bits equal, or the same error text.
fn assert_range_identical(
    vec_engine: &Engine,
    interp: &Engine,
    promql: &str,
    grid: (i64, i64, i64),
) {
    let (start, end, step) = grid;
    let got = vec_engine.range_query(promql, start, end, step);
    let want = interp.range_query(promql, start, end, step);
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.len(), w.len(), "series count for `{promql}`");
            for (gs, ws) in g.iter().zip(&w) {
                assert_eq!(gs.labels, ws.labels, "labels for `{promql}`");
                assert_eq!(
                    format!("{:?}", gs.labels),
                    format!("{:?}", ws.labels),
                    "label rendering for `{promql}`"
                );
                assert_eq!(gs.points.len(), ws.points.len(), "points for `{promql}`");
                for (gp, wp) in gs.points.iter().zip(&ws.points) {
                    assert_eq!(
                        gp.timestamp_ms, wp.timestamp_ms,
                        "timestamp for `{promql}`"
                    );
                    assert_eq!(
                        gp.value.to_bits(),
                        wp.value.to_bits(),
                        "value bits for `{promql}` at {}",
                        gp.timestamp_ms
                    );
                }
            }
        }
        (Err(ge), Err(we)) => assert_eq!(ge.to_string(), we.to_string(), "errors for `{promql}`"),
        (g, w) => panic!("range outcome diverged for `{promql}`: {g:?} vs {w:?}"),
    }
}

#[test]
fn range_queries_agree_across_steps() {
    let world = OperatorWorld::build(WorldConfig::small());
    let questions = generate_benchmark(&world, 40, 0xd1ff);
    let (vec_engine, interp) = engines(&world.store, 0);
    let grid = (world.eval_ts - 600_000, world.eval_ts, 60_000);
    // Raw selector shapes (with offsets and matchers) exercise the
    // bare-scan whole-range path benchmark questions may miss.
    let mut raw: Vec<String> = Vec::new();
    for name in world.store.metric_names().into_iter().take(4) {
        raw.push(name.to_string());
        raw.push(format!("{name} offset 2m"));
        raw.push(format!("{name}{{nf!=\"nosuch\"}}"));
    }
    let queries: Vec<String> = questions
        .iter()
        .map(|q| q.reference.promql.clone())
        .chain(raw)
        .collect();
    for promql in &queries {
        assert_range_identical(&vec_engine, &interp, promql, grid);
    }
}

/// Every shape the executor evaluates whole-range over `metric` — the
/// dashboard generator's `sum(rate(m[5m]))` and `sum(m)` among them —
/// each plain, with an offset, and with a matcher that selects nothing;
/// plus the neighbouring shapes that keep the step loop.
fn range_shapes(metric: &str) -> Vec<String> {
    let mut inputs: Vec<String> = Vec::new();
    for (matcher, offset) in [("", ""), ("", " offset 2m"), ("{instance=\"nosuch\"}", "")] {
        inputs.push(format!("{metric}{matcher}{offset}"));
        inputs.push(format!("rate({metric}{matcher}[5m]{offset})"));
        inputs.push(format!("avg_over_time({metric}{matcher}[90s]{offset})"));
    }
    let mut shapes = inputs.clone();
    for input in &inputs {
        for shape in [
            "sum(_)",
            "sum by (instance) (_)",
            "sum by (zone, nf) (_)",
            "avg without (instance) (_)",
            "avg(_)",
            "count(_)",
            "min(_)",
            "max(_)",
            "stddev(_)",
            "stdvar(_)",
            "stdvar by (zone) (_)",
            "group(_)",
            // Parameterised aggregates and binary roots: these step.
            "topk(2, _)",
            "quantile(0.3, _)",
            "sum(_) / count(_)",
        ] {
            shapes.push(shape.replace('_', input));
        }
    }
    for shape in &shapes {
        // An unparsable shape would "agree" on its parse error.
        assert!(dio_promql::parse(shape).is_ok(), "`{shape}` does not parse");
    }
    shapes
}

/// Eight series of one metric whose lifetimes overlap only in part, with
/// increments no float adds exactly: zone x is present from minute 10
/// to 40, zone y from 30 to 35 and again from 55 to 60, nothing at all
/// between 40 and 55. Three or more members per group, so the order a
/// fold adds them in shows in the bits.
fn staggered_store() -> MetricStore {
    let mut store = MetricStore::new();
    for (i, (instance, zone, from_min, to_min)) in [
        ("a", "x", 10, 20),
        ("b", "x", 15, 40),
        ("c", "x", 12, 38),
        ("d", "x", 18, 33),
        ("e", "y", 30, 35),
        ("f", "y", 31, 35),
        ("g", "y", 30, 34),
        ("h", "y", 55, 60),
    ]
    .into_iter()
    .enumerate()
    {
        // The odd ones also exist under a second name, so a name
        // pattern selects pairs that differ in `__name__` only.
        for name in ["staggered_total", "staggered_other"] {
            if name == "staggered_other" && i % 2 == 0 {
                continue;
            }
            let labels = Labels::from_pairs([
                ("__name__", name),
                ("instance", instance),
                ("nf", "amf"),
                ("zone", zone),
            ]);
            let mut level = 0.1 * (i + 1) as f64;
            for t in (from_min * 60_000..=to_min * 60_000).step_by(30_000) {
                let wobble = (t as f64 * 1e-5).sin().abs();
                level += std::f64::consts::PI * (i + 3) as f64 / 7.0 + wobble;
                store.append(labels.clone(), Sample::new(t, level)).unwrap();
            }
        }
    }
    store
}

/// A grid over [`staggered_store`] from before its first sample to
/// more than the lookback past its last.
const STAGGERED_GRIDS: [(i64, i64, i64); 2] =
    [(-300_000, 4_500_000, 60_000), (123_456, 4_400_000, 47_000)];

#[test]
fn whole_range_shapes_agree_on_the_world() {
    let world = OperatorWorld::build(WorldConfig::small());
    let (vec_engine, interp) = engines(&world.store, 0);
    let names = world.store.metric_names();
    // A grid inside the data, and one that runs off both of its ends.
    let grids = [
        (world.eval_ts - 600_000, world.eval_ts, 60_000),
        (-600_000, world.eval_ts + 900_000, 150_000),
    ];
    for name in names.iter().step_by(names.len() / 5) {
        for promql in range_shapes(name) {
            for grid in grids {
                assert_range_identical(&vec_engine, &interp, &promql, grid);
            }
        }
    }
}

#[test]
fn groups_that_appear_and_vanish_mid_range_agree() {
    let store = staggered_store();
    let (vec_engine, interp) = engines(&store, 0);
    // Under a name pattern two batches share their name-dropped labels:
    // a fused kernel merges them into one series, two points a step.
    let both_names = [
        "{__name__=~\"staggered_.*\"}",
        "rate({__name__=~\"staggered_.*\"}[5m])",
        "sum by (zone) (rate({__name__=~\"staggered_.*\"}[5m]))",
        "stddev without (instance) ({__name__=~\"staggered_.*\"})",
    ]
    .map(String::from);
    for promql in range_shapes("staggered_total").iter().chain(&both_names) {
        for grid in STAGGERED_GRIDS {
            assert_range_identical(&vec_engine, &interp, promql, grid);
        }
    }
    // The fixture does what it is for: one output series whose points
    // start after the grid does, skip the steps where nothing is in
    // lookback, and come back for the last series.
    let (start, end, step) = STAGGERED_GRIDS[0];
    let total = vec_engine.range_query("sum(staggered_total)", start, end, step).unwrap();
    assert_eq!(total.len(), 1);
    let at: Vec<i64> = total[0].points.iter().map(|p| p.timestamp_ms / 60_000).collect();
    assert_eq!(at.first(), Some(&10));
    assert!(at.contains(&45) && !at.contains(&46) && !at.contains(&54) && at.contains(&55));
    assert_eq!(at.last(), Some(&65));
    let by_zone = vec_engine
        .range_query("sum by (zone) (rate(staggered_total[5m]))", start, end, step)
        .unwrap();
    assert_eq!(by_zone.len(), 2);
    assert!(by_zone[1].points.len() < by_zone[0].points.len());
}

#[test]
fn range_budgets_trip_identically() {
    // A starved budget through `range_query`: the same `LimitExceeded`
    // text — it carries the total touched at the step that tripped —
    // or, when the budget holds per step, the same points. On the
    // staggered grid the first steps touch nothing, so the trip comes
    // mid-range, and a budget of 64 or 500 that holds at every step
    // would not if the count were carried from step to step.
    let world = OperatorWorld::build(WorldConfig::small());
    let name = world.store.metric_names()[0].to_string();
    let store = staggered_store();
    for budget in [1usize, 7, 64, 500] {
        let (vec_engine, interp) = engines(&world.store, budget);
        for promql in range_shapes(&name) {
            let grid = (world.eval_ts - 600_000, world.eval_ts, 60_000);
            assert_range_identical(&vec_engine, &interp, &promql, grid);
        }
        let (vec_engine, interp) = engines(&store, budget);
        for promql in range_shapes("staggered_total") {
            assert_range_identical(&vec_engine, &interp, &promql, STAGGERED_GRIDS[0]);
        }
    }
    // Both outcomes occur, so neither half of the claim is vacuous.
    let (vec_engine, _) = engines(&store, 7);
    let (start, end, step) = STAGGERED_GRIDS[0];
    let tripped = vec_engine.range_query("sum(rate(staggered_total[5m]))", start, end, step);
    assert!(tripped.unwrap_err().to_string().contains("limit is 7"));
    assert!(vec_engine.range_query("sum(staggered_total)", start, end, step).is_ok());
}

#[test]
fn tight_budgets_trip_identically() {
    // Same queries, starved budget: LimitExceeded must fire at the
    // same point with the same message under both executors.
    let world = OperatorWorld::build(WorldConfig::small());
    let questions = generate_benchmark(&world, 50, 0xd1ff);
    for budget in [1usize, 7, 64, 500] {
        let (vec_engine, interp) = engines(&world.store, budget);
        for q in &questions {
            assert_identical(&vec_engine, &interp, &q.reference.promql, world.eval_ts);
        }
    }
}

// ---------------------------------------------------------------------
// Seeded random-query generator
// ---------------------------------------------------------------------

struct QueryGen {
    state: u64,
    metrics: Vec<String>,
}

impl QueryGen {
    fn new(seed: u64, metrics: Vec<String>) -> Self {
        QueryGen { state: seed | 1, metrics }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<'a>(&mut self, options: &'a [&'a str]) -> &'a str {
        options[(self.next() % options.len() as u64) as usize]
    }

    fn metric(&mut self) -> String {
        let i = (self.next() % self.metrics.len() as u64) as usize;
        self.metrics[i].clone()
    }

    fn selector(&mut self) -> String {
        let m = self.metric();
        match self.next() % 4 {
            0 => m,
            1 => format!("{m}{{instance=~\".*-0\"}}"),
            2 => format!("{m}{{nf!=\"nosuch\"}}"),
            _ => format!("{m} offset {}s", 15 + self.next() % 300),
        }
    }

    fn range(&mut self) -> String {
        ["1m", "5m", "10m", "30s", "7m"][(self.next() % 5) as usize].to_string()
    }

    fn matrix_fn(&mut self) -> String {
        let f = self.pick(&[
            "rate", "increase", "irate", "delta", "idelta", "resets", "changes",
            "deriv", "avg_over_time", "sum_over_time", "min_over_time",
            "max_over_time", "count_over_time", "last_over_time",
            "stddev_over_time", "present_over_time",
        ]);
        let m = self.metric();
        let r = self.range();
        match self.next() % 8 {
            0 => format!("quantile_over_time(0.{}, {m}[{r}])", 1 + self.next() % 9),
            1 => format!("predict_linear({m}[{r}], {}s)", 60 + self.next() % 600),
            _ => format!("{f}({m}[{r}])"),
        }
    }

    fn vector_expr(&mut self, depth: u32) -> String {
        if depth == 0 {
            return match self.next() % 3 {
                0 => self.selector(),
                1 => self.matrix_fn(),
                _ => format!("{}", (self.next() % 1000) as f64 / 10.0),
            };
        }
        match self.next() % 10 {
            0 | 1 => {
                let agg = self.pick(&["sum", "avg", "min", "max", "count", "stddev", "stdvar"]);
                let by = match self.next() % 3 {
                    0 => " by (instance)".to_string(),
                    1 => " without (nf)".to_string(),
                    _ => String::new(),
                };
                format!("{agg}{by}({})", self.vector_expr(depth - 1))
            }
            2 => {
                let f = self.pick(&["abs", "ceil", "floor", "sqrt", "exp", "ln", "sgn", "sort"]);
                format!("{f}({})", self.vector_expr(depth - 1))
            }
            3 => format!(
                "topk({}, {})",
                1 + self.next() % 4,
                self.vector_expr(depth - 1)
            ),
            4 => {
                let op = self.pick(&["+", "-", "*", "/"]);
                format!(
                    "({}) {op} ({})",
                    self.vector_expr(depth - 1),
                    self.vector_expr(depth - 1)
                )
            }
            5 => {
                let op = self.pick(&[">", "<", ">=", "<=", "==", "!="]);
                let modifier = if self.next() % 2 == 0 { " bool" } else { "" };
                format!(
                    "({}) {op}{modifier} {}",
                    self.vector_expr(depth - 1),
                    (self.next() % 100) as f64
                )
            }
            6 => {
                let op = self.pick(&["and", "or", "unless"]);
                format!("({}) {op} ({})", self.selector(), self.selector())
            }
            7 => format!("-({})", self.vector_expr(depth - 1)),
            8 => format!("clamp_min({}, {})", self.vector_expr(depth - 1), self.next() % 10),
            _ => self.matrix_fn(),
        }
    }
}

#[test]
fn seeded_random_queries_agree() {
    let world = OperatorWorld::build(WorldConfig::small());
    let metrics: Vec<String> = world
        .store
        .metric_names()
        .into_iter()
        .map(|s| s.to_string())
        .collect();
    assert!(!metrics.is_empty());
    let (vec_engine, interp) = engines(&world.store, 0);
    let mut qgen = QueryGen::new(0x5eed_d1ff, metrics);
    for case in 0..300 {
        let depth = 1 + (case % 3) as u32;
        let query = qgen.vector_expr(depth);
        let ts = world.eval_ts - (qgen.next() % 1_800_000) as i64;
        assert_identical(&vec_engine, &interp, &query, ts);
        assert_range_identical(&vec_engine, &interp, &query, (ts - 600_000, ts, 75_000));
    }
}

#[test]
fn random_queries_agree_under_budget_pressure() {
    let world = OperatorWorld::build(WorldConfig::small());
    let metrics: Vec<String> = world
        .store
        .metric_names()
        .into_iter()
        .map(|s| s.to_string())
        .collect();
    let (vec_engine, interp) = engines(&world.store, 200);
    let mut qgen = QueryGen::new(0xbead_cafe, metrics);
    for _ in 0..100 {
        let query = qgen.vector_expr(2);
        assert_identical(&vec_engine, &interp, &query, world.eval_ts);
    }
}
