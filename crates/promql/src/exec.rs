//! The vectorized executor.
//!
//! Evaluates a [`PhysicalPlan`] against decoded column batches. The
//! context memoises each scan's batches, so a range query decodes and
//! matches every selector **once** and each step is two binary
//! searches plus the kernel arithmetic per series — this is where the
//! order-of-magnitude win over the per-step interpreter comes from.
//!
//! Everything observable matches the interpreter exactly: result
//! values (bit-for-bit — shared kernels, same op order), result
//! ordering (same sorts in the same order), and the samples-visited
//! accounting (charged per window in storage order, so a shared budget
//! trips at the same total with the same message).

use crate::batch::SeriesBatch;
use crate::engine::RangeResult;
use crate::error::EvalError;
use crate::ast::{AggOp, Grouping};
use crate::eval::kernels::{ParamPos, RangeKernel};
use crate::eval::aggregate::{self, group_by, group_key};
use crate::eval::{binop, Evaluator};
use crate::plan::{PhysicalPlan, PlanNode};
use crate::value::{RangeSeries, Value, VectorSample};
use dio_tsdb::{Labels, MetricStore, Sample};
use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;

/// One selector's materialised batches plus everything about the
/// result that is invariant across evaluation steps.
///
/// The interpreter re-derives all of this *every step*: it re-sorts
/// outputs by labels, re-clones label sets, and re-drops metric names.
/// For a fixed store the series set behind a selector never changes
/// between steps, so the executor computes each once:
///
/// * `order_full` — batch indices sorted by full labels, the order
///   instant and matrix scans emit in ([`crate::eval::sort_vector`] is
///   a stable sort, so sorting any present-subset of an already-sorted
///   sequence reproduces the induced order);
/// * `dropped` — per-batch name-dropped labels, cloned per step as a
///   reference-count bump;
/// * `order_fused` — indices sorted by (name-dropped labels, full
///   labels): the order that replays the interpreter's
///   sort-by-full-labels → kernel → drop names → stable re-sort
///   sequence for fused range kernels.
///
/// Only fused kernels read the last two, so they are built when the
/// first one asks: a stat panel's `sum(a) / sum(b)` never does.
struct ScanData {
    batches: Vec<SeriesBatch>,
    order_full: Vec<usize>,
    fused: OnceCell<(Vec<Labels>, Vec<usize>)>,
}

impl ScanData {
    fn build(batches: Vec<SeriesBatch>) -> ScanData {
        let mut order_full: Vec<usize> = (0..batches.len()).collect();
        order_full.sort_by(|&a, &b| batches[a].labels.cmp(&batches[b].labels));
        ScanData {
            batches,
            order_full,
            fused: OnceCell::new(),
        }
    }

    /// `(dropped, order_fused)`.
    fn fused(&self) -> &(Vec<Labels>, Vec<usize>) {
        self.fused.get_or_init(|| {
            let dropped: Vec<Labels> = self.batches.iter().map(|b| b.labels.drop_name()).collect();
            let mut order_fused = self.order_full.clone();
            order_fused.sort_by(|&a, &b| dropped[a].cmp(&dropped[b]));
            (dropped, order_fused)
        })
    }
}

/// One memoised scan: the lower time bound it was materialised from
/// and the decoded batches.
type ScanSlot = Option<(i64, Rc<ScanData>)>;

/// The evaluation grid of a range query: `steps` timestamps starting
/// at `start`, `step_ms` apart.
#[derive(Clone, Copy)]
pub(crate) struct StepGrid {
    /// First evaluation timestamp.
    pub start: i64,
    /// Number of steps (inclusive of both ends).
    pub steps: usize,
    /// Spacing between steps in milliseconds.
    pub step_ms: i64,
}

/// Execution context: one per query (instant) or per range query, so
/// scan memoisation spans every evaluation step.
pub(crate) struct ExecCtx<'a> {
    store: &'a MetricStore,
    plan: &'a PhysicalPlan,
    lookback_ms: i64,
    max_samples: usize,
    samples_visited: Cell<usize>,
    /// Per-scan memo: the materialised lower time bound and the
    /// decoded batches. Re-built only if a later evaluation needs an
    /// earlier bound (range steps ascend, so normally built once).
    scans: RefCell<Vec<ScanSlot>>,
}

impl<'a> ExecCtx<'a> {
    /// A fresh context over `plan`.
    pub(crate) fn new(
        store: &'a MetricStore,
        plan: &'a PhysicalPlan,
        lookback_ms: i64,
        max_samples: usize,
    ) -> Self {
        ExecCtx {
            store,
            plan,
            lookback_ms,
            max_samples,
            samples_visited: Cell::new(0),
            scans: RefCell::new(vec![None; plan.scans.len()]),
        }
    }

    /// Samples charged so far (cumulative across steps).
    pub(crate) fn samples_visited(&self) -> usize {
        self.samples_visited.get()
    }

    /// Reset the sample counter (range queries apply the budget per
    /// step, matching the interpreter's fresh evaluator per step).
    pub(crate) fn reset_samples(&self) {
        self.samples_visited.set(0);
    }

    /// Evaluate the plan root at timestamp `ts`.
    pub(crate) fn eval(&self, ts: i64) -> Result<Value, EvalError> {
        self.eval_node(&self.plan.root, ts)
    }

    fn charge(&self, n: usize) -> Result<(), EvalError> {
        let total = self.samples_visited.get() + n;
        self.samples_visited.set(total);
        if self.max_samples > 0 && total > self.max_samples {
            return Err(EvalError::LimitExceeded(format!(
                "query touched {total} samples, limit is {}",
                self.max_samples
            )));
        }
        Ok(())
    }

    /// Materialised batches for scan `scan`, in storage order (the
    /// order the interpreter charges in). Built on first touch and
    /// reused by every later node and step; materialisation is bounded
    /// below by the earliest timestamp the query can reach from `ts`
    /// (offset + widest range + lookback), so an instant query over a
    /// year of sealed chunks decodes only the recent ones. Sealed
    /// chunks are skipped by min/max metadata without decoding;
    /// left-partial chunks come in whole, which only adds early
    /// samples the window binary-searches step over — windows, values,
    /// and charge totals are unchanged.
    fn scan_data(&self, scan: usize, ts: i64) -> Rc<ScanData> {
        let spec = &self.plan.scans[scan];
        let needed_lo = ts
            .saturating_sub(spec.offset_ms)
            .saturating_sub(spec.max_range_ms)
            .saturating_sub(self.lookback_ms);
        if let Some((lo, data)) = &self.scans.borrow()[scan] {
            if *lo <= needed_lo {
                return Rc::clone(data);
            }
        }
        let cache = self.store.page_cache();
        let batches: Vec<SeriesBatch> = self
            .store
            .select_indices(&spec.matchers)
            .into_iter()
            .map(|id| {
                let series = self.store.series_at(id);
                let cols = series.cols_from(needed_lo, cache);
                SeriesBatch {
                    labels: series.labels().clone(),
                    ts: cols.ts,
                    vals: cols.vals,
                }
            })
            .collect();
        let rc = Rc::new(ScanData::build(batches));
        self.scans.borrow_mut()[scan] = Some((needed_lo, Rc::clone(&rc)));
        rc
    }

    /// Whole-range evaluation for a root that is a bare selector, a
    /// fused range kernel, or a parameterless aggregation over one of
    /// those: every step in one pass, points pushed straight into
    /// per-output buffers. Which batches feed which output series is
    /// resolved **once** — a fixed store gives a fixed series set per
    /// selector for the query's lifetime, so the grouping the step loop
    /// re-derives at every step cannot change between steps. `None` for
    /// any other root (parameterised aggregations, binary operators,
    /// `Interp`): the caller runs the step loop.
    ///
    /// Everything observable matches the step loop: per-step budget
    /// reset, storage-order charging, param evaluation order, and the
    /// output — a group's members stand in the order the per-step
    /// vector lists them, so a fold adds the same floats in the same
    /// order; batches sharing name-dropped labels merge into one series
    /// in emission order; a group absent at a step emits no point; and
    /// groups come out label-sorted.
    pub(crate) fn eval_range(&self, grid: StepGrid) -> Option<Result<Vec<RangeResult>, EvalError>> {
        let (reduce, source) = match &self.plan.root {
            PlanNode::Aggregate {
                op,
                param: None,
                input,
                grouping,
            } if !op.takes_param() => (Some((*op, grouping)), input.as_ref()),
            root => (None, root),
        };
        match source {
            PlanNode::InstantScan { scan } => Some(self.range_whole(*scan, None, reduce, grid)),
            PlanNode::FusedRange {
                scan,
                range_ms,
                kernel,
                param,
            } => Some(self.range_whole(*scan, Some((*range_ms, kernel, param)), reduce, grid)),
            _ => None,
        }
    }

    /// [`ExecCtx::eval_range`]'s one routine. A batch's value at a step
    /// is `fused`'s kernel over its advancing window, or without one
    /// its instant sample; `reduce` folds a group's present values into
    /// one point, and without it each present member emits its own.
    fn range_whole(
        &self,
        scan: usize,
        fused: Option<(i64, &RangeKernel, &Option<Box<PlanNode>>)>,
        reduce: Option<(AggOp, &Grouping)>,
        grid: StepGrid,
    ) -> Result<Vec<RangeResult>, EvalError> {
        let StepGrid { start, steps, step_ms } = grid;
        let data = self.scan_data(scan, start);
        let offset_ms = self.plan.scans[scan].offset_ms;
        // The order and labels the per-step vector lists batches in.
        let (order, dropped) = match fused {
            Some(_) => (&data.fused().1, Some(&data.fused().0)),
            None => (&data.order_full, None),
        };
        let labels = |i: usize| dropped.map_or(&data.batches[i].labels, |dropped| &dropped[i]);
        let mut groups = group_by(order.iter().copied(), |&i| match reduce {
            Some((_, grouping)) => group_key(labels(i), grouping),
            None => labels(i).clone(),
        });
        groups.sort_by(|a, b| a.0.cmp(&b.0));

        // Argument-resolution order mirrors the interpreter: φ of
        // `quantile_over_time(φ, m[r])` before the windows are charged,
        // the horizon of `predict_linear(m[r], h)` after.
        let param_at = |pos, ts, p: &mut f64| match fused {
            Some((_, kernel, param)) if kernel.param_pos() == Some(pos) => {
                self.param_scalar(kernel.name(), param, ts).map(|v| *p = v)
            }
            _ => Ok(()),
        };
        let mut points: Vec<Vec<Sample>> = vec![Vec::new(); groups.len()];
        let mut windows: Vec<(usize, usize)> = vec![(0, 0); data.batches.len()];
        let mut values: Vec<Option<f64>> = vec![None; data.batches.len()];
        let mut folded: Vec<f64> = Vec::new();
        for k in 0..steps {
            let ts = start + k as i64 * step_ms;
            self.reset_samples();
            let mut p = 0.0;
            param_at(ParamPos::BeforeMatrix, ts, &mut p)?;
            let at = ts - offset_ms;
            for (batch, window) in data.batches.iter().zip(&mut windows) {
                // Steps ascend, so last step's bounds are valid hints.
                let (lo, hi) = match fused {
                    Some((range_ms, ..)) => batch.window_from(at - range_ms, at, *window),
                    // An instant lookup's window is the one sample it
                    // returns, when that is within the lookback.
                    None => {
                        let (_, hi) = batch.window_from(i64::MIN, at, *window);
                        let live = hi > 0 && at - batch.ts[hi - 1] <= self.lookback_ms;
                        (hi - live as usize, hi)
                    }
                };
                if hi > lo {
                    self.charge(hi - lo)?;
                }
                *window = (lo, hi);
            }
            param_at(ParamPos::AfterMatrix, ts, &mut p)?;
            // Each batch's value, still in storage order — the order
            // the columns lie in memory — then out by group.
            for ((batch, &(lo, hi)), value) in data.batches.iter().zip(&windows).zip(&mut values) {
                *value = match fused {
                    _ if hi <= lo => None,
                    Some((_, kernel, _)) => kernel.apply(p, &batch.ts[lo..hi], &batch.vals[lo..hi]),
                    None => Some(batch.vals[hi - 1]),
                };
            }
            for ((_, members), points) in groups.iter().zip(&mut points) {
                let present = members.iter().filter_map(|&i| values[i]);
                match reduce {
                    None => points.extend(present.map(|v| Sample::new(ts, v))),
                    Some((op, _)) => {
                        folded.clear();
                        folded.extend(present);
                        if !folded.is_empty() {
                            points.push(Sample::new(ts, aggregate::fold(op, &folded)));
                        }
                    }
                }
            }
        }
        Ok(groups
            .into_iter()
            .zip(points)
            .filter(|(_, points)| !points.is_empty())
            .map(|((labels, _), points)| RangeResult { labels, points })
            .collect())
    }

    fn eval_node(&self, node: &PlanNode, ts: i64) -> Result<Value, EvalError> {
        match node {
            PlanNode::Number(n) => Ok(Value::Scalar(*n)),
            PlanNode::String(s) => Ok(Value::Str(s.clone())),
            PlanNode::InstantScan { scan } => {
                let data = self.scan_data(*scan, ts);
                let at = ts - self.plan.scans[*scan].offset_ms;
                // Probe and charge in storage order (the interpreter's
                // order, so budget trips at the same totals)…
                let mut values: Vec<Option<f64>> = Vec::with_capacity(data.batches.len());
                for batch in &data.batches {
                    let v = batch.value_at(at, self.lookback_ms);
                    if v.is_some() {
                        self.charge(1)?;
                    }
                    values.push(v);
                }
                // …then emit in the precomputed label order: no
                // per-step sort, labels clone is a refcount bump.
                let mut out = Vec::with_capacity(data.batches.len());
                for &i in &data.order_full {
                    if let Some(value) = values[i] {
                        out.push(VectorSample {
                            labels: data.batches[i].labels.clone(),
                            value,
                        });
                    }
                }
                Ok(Value::Vector(out))
            }
            PlanNode::RangeScan { scan, range_ms } => {
                let data = self.scan_data(*scan, ts);
                let at = ts - self.plan.scans[*scan].offset_ms;
                let mut windows: Vec<(usize, usize)> = Vec::with_capacity(data.batches.len());
                for batch in &data.batches {
                    let (lo, hi) = batch.window(at - range_ms, at);
                    if hi > lo {
                        self.charge(hi - lo)?;
                    }
                    windows.push((lo, hi));
                }
                let mut out = Vec::with_capacity(data.batches.len());
                for &i in &data.order_full {
                    let (lo, hi) = windows[i];
                    if hi > lo {
                        let batch = &data.batches[i];
                        out.push(RangeSeries {
                            labels: batch.labels.clone(),
                            samples: batch.ts[lo..hi]
                                .iter()
                                .zip(&batch.vals[lo..hi])
                                .map(|(&t, &v)| Sample::new(t, v))
                                .collect(),
                        });
                    }
                }
                Ok(Value::Matrix(out))
            }
            PlanNode::FusedRange {
                scan,
                range_ms,
                kernel,
                param,
            } => {
                // Argument-resolution order mirrors the interpreter:
                // `quantile_over_time(φ, m[r])` evaluates φ before the
                // matrix, `predict_linear(m[r], h)` after.
                let mut p = 0.0;
                if kernel.param_pos() == Some(ParamPos::BeforeMatrix) {
                    p = self.param_scalar(kernel.name(), param, ts)?;
                }
                let data = self.scan_data(*scan, ts);
                let at = ts - self.plan.scans[*scan].offset_ms;
                // Charge in storage order (interpreter order).
                let mut windows: Vec<(usize, usize)> = Vec::with_capacity(data.batches.len());
                for batch in &data.batches {
                    let (lo, hi) = batch.window(at - range_ms, at);
                    if hi > lo {
                        self.charge(hi - lo)?;
                    }
                    windows.push((lo, hi));
                }
                if kernel.param_pos() == Some(ParamPos::AfterMatrix) {
                    p = self.param_scalar(kernel.name(), param, ts)?;
                }
                // The interpreter sorts the matrix by full labels, runs
                // the kernel, drops names, then stable-sorts by the
                // dropped labels. `order_fused` is that exact composed
                // permutation, precomputed once — per step this is just
                // the kernel arithmetic plus refcount bumps.
                let (dropped, order_fused) = data.fused();
                let mut out = Vec::with_capacity(data.batches.len());
                for &i in order_fused {
                    let (lo, hi) = windows[i];
                    if hi <= lo {
                        continue;
                    }
                    let batch = &data.batches[i];
                    if let Some(value) =
                        kernel.apply(p, &batch.ts[lo..hi], &batch.vals[lo..hi])
                    {
                        out.push(VectorSample {
                            labels: dropped[i].clone(),
                            value,
                        });
                    }
                }
                Ok(Value::Vector(out))
            }
            PlanNode::Neg(inner) => match self.eval_node(inner, ts)? {
                Value::Scalar(v) => Ok(Value::Scalar(-v)),
                Value::Vector(v) => Ok(Value::Vector(
                    v.into_iter()
                        .map(|s| VectorSample {
                            labels: s.labels.drop_name(),
                            value: -s.value,
                        })
                        .collect(),
                )),
                other => Err(EvalError::TypeMismatch(format!(
                    "cannot negate {}",
                    other.type_name()
                ))),
            },
            PlanNode::Binary {
                op,
                lhs,
                rhs,
                bool_modifier,
                matching,
            } => {
                let l = self.eval_node(lhs, ts)?;
                let r = self.eval_node(rhs, ts)?;
                binop::eval_binary(*op, l, r, *bool_modifier, matching)
            }
            PlanNode::Aggregate {
                op,
                param,
                input,
                grouping,
            } => {
                let param_val = match param {
                    Some(p) => Some(self.eval_node(p, ts)?),
                    None => None,
                };
                let inner = self.eval_node(input, ts)?;
                crate::eval::aggregate::eval_aggregate(*op, param_val, inner, grouping)
            }
            PlanNode::Interp(expr) => {
                // Hand the sub-expression to the interpreter with the
                // shared sample budget threaded through, then absorb
                // its accounting.
                let ev = Evaluator::with_visited(
                    self.store,
                    self.lookback_ms,
                    self.max_samples,
                    self.samples_visited.get(),
                );
                let out = ev.eval(expr, ts);
                self.samples_visited.set(ev.samples_visited());
                out
            }
        }
    }

    fn param_scalar(
        &self,
        func: &str,
        param: &Option<Box<PlanNode>>,
        ts: i64,
    ) -> Result<f64, EvalError> {
        let node = param
            .as_deref()
            .expect("planner fuses parameterised kernels only with a param");
        match self.eval_node(node, ts)? {
            Value::Scalar(s) => Ok(s),
            other => Err(EvalError::TypeMismatch(format!(
                "{func} requires a scalar argument, got {}",
                other.type_name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use dio_tsdb::Labels;

    fn store() -> MetricStore {
        let mut st = MetricStore::new();
        for inst in ["a", "b"] {
            let l = Labels::from_pairs([("__name__", "reqs_total"), ("i", inst)]);
            for k in 0..=10i64 {
                st.append(l.clone(), Sample::new(k * 60_000, (k * 60) as f64))
                    .unwrap();
            }
        }
        st
    }

    fn both(q: &str, ts: i64) -> (Result<Value, EvalError>, Result<Value, EvalError>) {
        let st = store();
        let expr = parse(q).unwrap();
        let plan = crate::plan::plan(&expr);
        let ctx = ExecCtx::new(&st, &plan, 300_000, 0);
        let vectorized = ctx.eval(ts);
        let ev = Evaluator::new(&st, 300_000, 0);
        let interp = ev.eval(&expr, ts);
        (vectorized, interp)
    }

    #[test]
    fn agrees_with_interpreter_on_core_shapes() {
        for q in [
            "reqs_total",
            "reqs_total[5m]",
            "sum(rate(reqs_total[5m]))",
            "avg_over_time(reqs_total[7m])",
            "quantile_over_time(0.5, reqs_total[10m])",
            "predict_linear(reqs_total[10m], 60)",
            "-reqs_total",
            "sum by (i) (reqs_total) / 2",
            "topk(1, reqs_total)",
        ] {
            let (v, i) = both(q, 600_000);
            assert_eq!(v, i, "{q}");
        }
    }

    #[test]
    fn whole_range_takes_selector_kernel_and_plain_aggregate_roots() {
        let st = store();
        let grid = StepGrid {
            start: 0,
            steps: 11,
            step_ms: 60_000,
        };
        for (q, whole) in [
            ("reqs_total", true),
            ("rate(reqs_total[5m])", true),
            ("quantile_over_time(0.5, reqs_total[10m])", true),
            ("sum(rate(reqs_total[5m]))", true),
            ("avg by (i) (reqs_total offset 1m)", true),
            ("stddev without (i) (reqs_total)", true),
            // Parameterised aggregates, anything under a second
            // operator, and the interpreter's shapes keep stepping.
            ("topk(1, reqs_total)", false),
            ("quantile(0.5, reqs_total)", false),
            ("sum(reqs_total) / 2", false),
            ("sum(-reqs_total)", false),
            ("sum(sum by (i) (reqs_total))", false),
            ("max_over_time(sum(reqs_total)[5m:1m])", false),
        ] {
            let plan = crate::plan::plan(&parse(q).unwrap());
            let ctx = ExecCtx::new(&st, &plan, 300_000, 0);
            assert_eq!(ctx.eval_range(grid).is_some(), whole, "{q}");
        }
        // A fused kernel's scan builds its name-dropped view; a scan
        // read only by instant selectors never does.
        for (q, builds) in [("sum(rate(reqs_total[5m]))", true), ("sum(reqs_total)", false)] {
            let plan = crate::plan::plan(&parse(q).unwrap());
            let ctx = ExecCtx::new(&st, &plan, 300_000, 0);
            ctx.eval(600_000).unwrap();
            ctx.eval_range(grid).unwrap().unwrap();
            let scans = ctx.scans.borrow();
            let (_, data) = scans[0].as_ref().unwrap();
            assert_eq!(data.fused.get().is_some(), builds, "{q}");
        }
    }

    #[test]
    fn scan_memoisation_survives_steps() {
        let st = store();
        let expr = parse("sum(rate(reqs_total[5m]))").unwrap();
        let plan = crate::plan::plan(&expr);
        let ctx = ExecCtx::new(&st, &plan, 300_000, 0);
        let a = ctx.eval(300_000).unwrap();
        let b = ctx.eval(600_000).unwrap();
        assert_ne!(a, Value::Vector(vec![]));
        assert_ne!(b, Value::Vector(vec![]));
        // One scan, materialised once.
        assert_eq!(ctx.scans.borrow().iter().filter(|s| s.is_some()).count(), 1);
    }

    #[test]
    fn budget_trips_like_interpreter() {
        let st = store();
        let expr = parse("sum(rate(reqs_total[10m]))").unwrap();
        let plan = crate::plan::plan(&expr);
        let ctx = ExecCtx::new(&st, &plan, 300_000, 5);
        let err = ctx.eval(600_000).unwrap_err();
        let ev = Evaluator::new(&st, 300_000, 5);
        let ierr = ev.eval(&expr, 600_000).unwrap_err();
        assert_eq!(err, ierr);
    }

    #[test]
    fn interp_fallback_charges_shared_budget() {
        let st = store();
        // Subquery → interp node; budget must still apply.
        let expr = parse("max_over_time(sum(reqs_total)[5m:1m])").unwrap();
        let plan = crate::plan::plan(&expr);
        assert_eq!(plan.root.opcode(), "interp");
        let ctx = ExecCtx::new(&st, &plan, 300_000, 3);
        assert!(matches!(
            ctx.eval(600_000),
            Err(EvalError::LimitExceeded(_))
        ));
        let ctx = ExecCtx::new(&st, &plan, 300_000, 0);
        let v = ctx.eval(600_000).unwrap();
        assert!(ctx.samples_visited() > 0);
        let ev = Evaluator::new(&st, 300_000, 0);
        assert_eq!(v, ev.eval(&expr, 600_000).unwrap());
        assert_eq!(ctx.samples_visited(), ev.samples_visited());
    }
}
